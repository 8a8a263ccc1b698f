"""Append-only snapshot store for harvested observations.

Each append writes one immutable CSV file (written under a temporary name,
then hard-linked to its final name, so readers never see a partial snapshot
and concurrent writers never share an id) and records it in a manifest file
with one line per snapshot: ``snapshot_id,observed_at,row_count,filename``.

Reads can keep each parsed snapshot in a cache directory, one file per
snapshot content (``snapshot-v<N>-r<R>-<sha256 of the CSV bytes>``, where N
is the cache file's layout version and R the CSV reader's,
``gbfs_client.OBSERVATION_READER_VERSION``), so a later read of the same
file parses no CSV (``content_cache.load``, given this module's parse,
``_encode`` and ``_decode``). A cache file holds the columns of a
``gbfs_client.Observations`` in ``content_cache``'s frame: the header line
holds the row count ``n``, the ``entity_id`` list, and ``[value, count]``
run-length pairs for ``system_id``, ``docking_type`` and ``observed_at``;
the body is the lat column and the lon column as raw float64. A read
returns an Observations, cached or not, and builds no records.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import uuid
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Union

from . import content_cache
from .errors import SnapshotNotFoundError, StorageError
from .gbfs_client import (
    KIND_TEXT,
    OBSERVATION_READER_VERSION,
    TEXT_KIND,
    BikeObservation,
    Observations,
    read_observations_csv,
    valid_observation_values,
    write_observations_csv,
)

MANIFEST_NAME = "manifest.csv"

# Part of every snapshot cache key, with the reader's version: a change to
# the cache file's layout or meaning must bump it, so files written before
# the change are never read.
_CACHE_VERSION = 1

Selector = Union[str, int, tuple]


@dataclass(frozen=True)
class SnapshotReceipt:
    snapshot_id: int
    observed_at: int
    row_count: int
    systems: tuple[str, ...]


@dataclass(frozen=True)
class _ManifestRow:
    snapshot_id: int
    observed_at: int
    row_count: int
    filename: str


def _read_manifest(store: Path) -> list[_ManifestRow]:
    path = store / MANIFEST_NAME
    if not path.exists():
        return []
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise StorageError(f"cannot read manifest {path}: {exc}") from exc
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            snapshot_id, observed_at, row_count, filename = line.split(",")
            rows.append(
                _ManifestRow(int(snapshot_id), int(observed_at), int(row_count), filename)
            )
        except ValueError as exc:
            raise StorageError(f"corrupt manifest line in {path}: {line!r}") from exc
    rows.sort(key=lambda row: row.snapshot_id)
    return rows


def append_snapshot(
    observations: list[BikeObservation],
    store_path: str | Path,
    clock: Callable[[], float] = time.time,
) -> SnapshotReceipt:
    """Write observations as a new immutable snapshot and return its receipt.

    Snapshot ids increase with each append; an id whose file already exists
    (taken by a concurrent append, or left by a crash before its manifest
    line) is skipped. The snapshot's observed_at is the newest observation
    timestamp, or the clock when the list is empty. A failed write leaves no
    partial file behind.
    """
    store = Path(store_path)
    try:
        store.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create store at {store}: {exc}") from exc
    existing = _read_manifest(store)
    snapshot_id = existing[-1].snapshot_id + 1 if existing else 1
    if observations:
        observed_at = max(obs.observed_at for obs in observations)
    else:
        observed_at = int(clock())
    # A name no other writer uses.
    tmp_path = store / f"snapshot_{uuid.uuid4().hex}.csv.tmp"
    try:
        with open(tmp_path, "x", encoding="utf-8", newline="") as fh:
            row_count = write_observations_csv(observations, fh)
        # Claim the id by linking the finished file under its final name: the
        # link fails if the name exists, whether another writer took the id
        # first or a crash left a file the manifest never recorded, and the
        # next id is tried instead. Nothing is ever overwritten.
        while True:
            filename = f"snapshot_{snapshot_id:06d}.csv"
            try:
                os.link(tmp_path, store / filename)
                break
            except FileExistsError:
                snapshot_id += 1
    except OSError as exc:
        raise StorageError(f"cannot write snapshot to {store}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            tmp_path.unlink()
    try:
        with open(store / MANIFEST_NAME, "a", encoding="utf-8") as fh:
            fh.write(f"{snapshot_id},{observed_at},{row_count},{filename}\n")
    except OSError as exc:
        raise StorageError(f"cannot update manifest in {store}: {exc}") from exc
    systems = tuple(sorted({obs.system_id for obs in observations}))
    return SnapshotReceipt(
        snapshot_id=snapshot_id,
        observed_at=observed_at,
        row_count=row_count,
        systems=systems,
    )


def _read_snapshot_file(
    store: Path, row: _ManifestRow, cache_dir: str | Path | None = None
) -> Observations:
    path = store / row.filename
    try:
        return content_cache.load(
            path, cache_dir, f"snapshot-v{_CACHE_VERSION}-r{OBSERVATION_READER_VERSION}",
            _parse_csv, _encode, _decode,
        )
    except OSError as exc:
        raise StorageError(f"manifest names missing snapshot file {path}") from exc


def _parse_csv(data: bytes) -> Observations:
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        return read_observations_csv(fh)


def _encode(observations: Observations) -> tuple[dict, tuple[array, array]]:
    """The cache file's header (n and the id and run-length columns) and body
    (the lat and lon columns)."""
    header = {
        "n": len(observations),
        "system_id": observations.system_id_runs,
        "entity_id": observations.entity_ids,
        "docking_type": [
            [KIND_TEXT[kind], count] for kind, count in observations.docking_type_runs
        ],
        "observed_at": observations.observed_at_runs,
    }
    return header, (observations.lats, observations.lons)


def _decode(header: dict, body: memoryview) -> Observations:
    """The columns of a cache file; raises (a miss) unless its run lengths
    and columns add up to n and its values pass the CSV reader's own rule
    (gbfs_client.valid_observation_values)."""
    n = header["n"]
    entity_ids = header["entity_id"]
    runs = [header[column] for column in ("system_id", "docking_type", "observed_at")]
    if not (
        type(n) is int
        and len(body) == 16 * n
        and all(_valid_runs(column, n) for column in runs)
        and type(entity_ids) is list
        and len(entity_ids) == n
    ):
        raise ValueError("columns do not add up to n")
    systems, kinds, observed_ats = runs
    kinds = [[TEXT_KIND[value], count] for value, count in kinds]
    lats, lons = array("d"), array("d")
    lats.frombytes(body[:8 * n])
    lons.frombytes(body[8 * n:])
    if not valid_observation_values(
        _values(systems), entity_ids, lats, lons, _values(kinds), _values(observed_ats)
    ):
        raise ValueError("a value the CSV reader would not return")
    return Observations(systems, entity_ids, lats, lons, kinds, observed_ats)


def _valid_runs(runs, n: int) -> bool:
    """Whether runs is a list of [value, count] pairs whose positive int
    counts sum to n."""
    return (
        type(runs) is list
        and all(
            type(run) is list and len(run) == 2 and type(run[1]) is int and run[1] > 0
            for run in runs
        )
        and sum(count for _, count in runs) == n
    )


def _values(runs: list) -> list:
    return [value for value, _ in runs]


def load_snapshot(
    store_path: str | Path,
    selector: Selector = "latest",
    *,
    cache_dir: str | Path | None = None,
) -> Observations:
    """Load observations for a selector: "latest", a snapshot id, or a
    (start, end) inclusive observed_at range. The result is a
    ``gbfs_client.Observations``: a sequence of BikeObservations built on
    access from the columns it holds.

    A range spanning several snapshots is deduplicated by
    (system_id, entity_id, docking_type), keeping the newest observed_at; a
    later snapshot wins ties so repeated loads are deterministic. Each key
    keeps the place where it first appears.

    With ``cache_dir``, the parsed columns of each snapshot file that read
    cleanly are kept there, and a later read of the same bytes loads them
    instead of parsing the CSV. A cache file that is missing, unreadable or
    not written for these bytes is a miss (and is replaced); a directory that
    cannot be written is left alone. Either way the result and the errors
    are those of a load without the cache.

    Raises:
        SnapshotNotFoundError: nothing matches the selector.
    """
    store = Path(store_path)
    rows = _read_manifest(store)
    if not rows:
        raise SnapshotNotFoundError(f"no snapshots in {store}")
    if isinstance(selector, str):
        if selector != "latest":
            raise ValueError(
                "selector must be 'latest', an integer id, or a (start, end) range"
            )
        chosen = [rows[-1]]
    elif isinstance(selector, bool):
        raise ValueError("selector must not be a boolean")
    elif isinstance(selector, int):
        chosen = [row for row in rows if row.snapshot_id == selector]
        if not chosen:
            raise SnapshotNotFoundError(f"snapshot id {selector} not found in {store}")
    elif isinstance(selector, tuple) and len(selector) == 2:
        start, end = selector
        chosen = [row for row in rows if start <= row.observed_at <= end]
        if not chosen:
            raise SnapshotNotFoundError(
                f"no snapshot with observed_at in [{start}, {end}] in {store}"
            )
    else:
        raise ValueError(
            "selector must be 'latest', an integer id, or a (start, end) range"
        )
    if len(chosen) == 1:
        return _read_snapshot_file(store, chosen[0], cache_dir)
    return _newest_per_key(_read_snapshot_file(store, row, cache_dir) for row in chosen)


def _newest_per_key(snapshots: Iterable[Observations]) -> Observations:
    """One row per (system_id, entity_id, docking_type) of the snapshots,
    read in order: each key where it first appears, with the lat, lon and
    observed_at of its newest observed_at (the later row on a tie)."""
    newest: dict[tuple, tuple] = {}
    for snapshot in snapshots:
        system_ids, entity_ids, lats, lons, kinds, observed_ats = snapshot.columns()
        for key, value in zip(zip(system_ids, entity_ids, kinds), zip(observed_ats, lats, lons)):
            kept = newest.get(key)
            if kept is None or value[0] >= kept[0]:
                newest[key] = value
    system_ids, entity_ids, kinds = tuple(zip(*newest)) or ((), (), ())
    observed_ats, lats, lons = tuple(zip(*newest.values())) or ((), (), ())
    return Observations.from_columns(system_ids, entity_ids, lats, lons, kinds, observed_ats)
