"""Append-only snapshot store for harvested observations.

Each append writes one immutable CSV file (written under a temporary name,
then hard-linked to its final name, so readers never see a partial snapshot
and concurrent writers never share an id) and records it in a manifest file
with one line per snapshot: ``snapshot_id,observed_at,row_count,filename``.
"""

from __future__ import annotations

import contextlib
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

from .errors import SnapshotNotFoundError, StorageError
from .gbfs_client import BikeObservation, read_observations_csv, write_observations_csv

MANIFEST_NAME = "manifest.csv"

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


def _read_snapshot_file(store: Path, row: _ManifestRow) -> list[BikeObservation]:
    path = store / row.filename
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return read_observations_csv(fh)
    except OSError as exc:
        raise StorageError(f"manifest names missing snapshot file {path}") from exc


def load_snapshot(
    store_path: str | Path, selector: Selector = "latest"
) -> list[BikeObservation]:
    """Load observations for a selector: "latest", a snapshot id, or a
    (start, end) inclusive observed_at range.

    A range spanning several snapshots is deduplicated by
    (system_id, entity_id, docking_type), keeping the newest observed_at; a
    later snapshot wins ties so repeated loads are deterministic.

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
        return _read_snapshot_file(store, chosen[0])
    deduped: dict[tuple, BikeObservation] = {}
    for row in chosen:
        for obs in _read_snapshot_file(store, row):
            key = (obs.system_id, obs.entity_id, obs.docking_type)
            previous = deduped.get(key)
            if previous is None or obs.observed_at >= previous.observed_at:
                deduped[key] = obs
    return list(deduped.values())
