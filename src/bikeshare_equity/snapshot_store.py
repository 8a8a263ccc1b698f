"""The snapshot format, and the append-only store of snapshots in it.

A harvest is kept as one snapshot: a CSV file with the header
``OBSERVATION_COLUMNS`` (system_id, entity_id, lat, lon, docking_type,
observed_at) and one row per observation. ``write_observations_csv`` writes
an ``Observations`` (the columns) in it, and ``read_observations_csv`` reads
one back. ``valid_observation_values`` is the rule for what a read can return.

Each append writes one immutable CSV file (written under a temporary name,
then hard-linked to its final name, so readers never see a partial snapshot
and concurrent writers never share an id) and records it in a manifest file
with one line per snapshot: ``snapshot_id,observed_at,row_count,filename``.

Reads can keep each parsed snapshot in a cache directory, one file per
snapshot content (``snapshot-v<N>-<sha256 of the CSV bytes>``, where N is
``_CACHE_VERSION``), so a later read of the same file parses no CSV
(``content_cache.load``, given this module's parse, ``_encode`` and
``_decode``). A cache file holds the columns of an Observations in
``content_cache``'s frame: the header line holds the row count ``n``,
``[value, count]`` run-length pairs for ``system_id``, ``docking_type`` and
``observed_at``, ``separator``, a character that occurs in no entity_id, and
``id_bytes``; the body is the lat column and the lon column as raw float64,
then the entity_ids joined by the separator, as id_bytes of UTF-8. A read
returns an Observations, cached or not, and builds no records; a cached one
splits its ids only when they are read.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import operator
import os
import time
import uuid
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO, Union

from . import content_cache
from .errors import ParseError, SchemaError, SnapshotNotFoundError, StorageError

OBSERVATION_COLUMNS = (
    "system_id",
    "entity_id",
    "lat",
    "lon",
    "docking_type",
    "observed_at",
)


class DockingType(str, Enum):
    DOCKED = "docked"
    FREE = "free"


class BikeObservation(NamedTuple):
    """One harvested entity at one time point; a tuple, so building one is a
    single C-level call (a harvest builds thousands)."""

    system_id: str
    entity_id: str
    lat: float
    lon: float
    docking_type: DockingType
    observed_at: int


# A DockingType's text in the snapshot CSV, and back.
KIND_TEXT = {kind: kind.value for kind in DockingType}
TEXT_KIND = {kind.value: kind for kind in DockingType}


# Rows per fh.write: about 70 kB of text, enough that the joins and writes
# cost little per row. 4,096-row chunks (about 0.3 MB each) wrote no faster
# and raised a harvest's peak RSS by 1 MB on CPython 3.11/glibc; these raise
# it by 0.1 MB.
_WRITE_CHUNK = 1 << 10
# A text field holding any of these is written quoted, each '"' doubled: csv's
# QUOTE_MINIMAL as Python 3.13's csv.writer applies it with "\n" line ends.
# (Earlier versions leave a lone "\r" bare, and no reader splits that back.)
_QUOTED_CHARS = (",", '"', "\n", "\r")


def _run_lengths(values: Iterable) -> list[list]:
    """[value, count] runs of equal consecutive values; each run keeps the
    object of its first value."""
    return [[value, len(list(run))] for value, run in groupby(values)]


def _expand(runs: Iterable) -> Iterator:
    """The values of [value, count] runs, one object per run repeated."""
    return chain.from_iterable(repeat(value, count) for value, count in runs)


class _JoinedIds(NamedTuple):
    """One or more ids joined by a separator that occurs in none of them."""

    separator: str
    text: str


class Observations:
    """A snapshot's observations as columns, as a snapshot cache file holds
    them: the entity_ids, and the lats and lons as float64 arrays, one value
    per row, and ``[value, count]`` runs of equal consecutive system_id,
    docking_type and observed_at values, whose counts sum to the row count.
    The arrays hold no float objects, which a column of 10k rows would
    otherwise keep for as long as it lives. A cached read keeps the
    entity_ids as one joined text until they are first read, so a reader of
    the other columns (map, analyze) builds no id object.

    The pipeline's stages read the columns. Iterating it builds one
    BikeObservation per row, for callers that read rows one by one.
    """

    __slots__ = (
        "system_id_runs", "_entity_ids", "lats", "lons", "docking_type_runs", "observed_at_runs",
    )

    def __init__(
        self,
        system_id_runs: list,
        entity_ids: Sequence[str] | _JoinedIds,
        lats: array,
        lons: array,
        docking_type_runs: list,
        observed_at_runs: list,
    ):
        self.system_id_runs = system_id_runs
        self._entity_ids = entity_ids
        self.lats = lats
        self.lons = lons
        self.docking_type_runs = docking_type_runs
        self.observed_at_runs = observed_at_runs

    @classmethod
    def from_columns(
        cls, system_ids: Iterable, entity_ids: Sequence[str], lats: Iterable[float],
        lons: Iterable[float], docking_types: Iterable, observed_ats: Iterable,
    ) -> Observations:
        """From six columns with one value per row, in OBSERVATION_COLUMNS
        order; system_ids, docking_types and observed_ats become runs, and
        lats and lons float64 arrays."""
        return cls(
            _run_lengths(system_ids), entity_ids, array("d", lats), array("d", lons),
            _run_lengths(docking_types), _run_lengths(observed_ats),
        )

    @property
    def entity_ids(self) -> Sequence[str]:
        ids = self._entity_ids
        if type(ids) is _JoinedIds:
            ids = self._entity_ids = ids.text.split(ids.separator)
        return ids

    def columns(self) -> tuple[Iterable, ...]:
        """The six columns with one value per row, in OBSERVATION_COLUMNS
        order; the run-length ones are expanded as they are iterated."""
        return (
            _expand(self.system_id_runs), self.entity_ids, self.lats, self.lons,
            _expand(self.docking_type_runs), _expand(self.observed_at_runs),
        )

    def __len__(self) -> int:
        return len(self.lats)

    def __iter__(self) -> Iterator[BikeObservation]:
        # tuple.__new__ builds each record without the NamedTuple's
        # Python-level __new__; the records are the same BikeObservations.
        return map(tuple.__new__, repeat(BikeObservation), zip(*self.columns()))


def _quote_field(text: str) -> str:
    if any(char in text for char in _QUOTED_CHARS):
        return '"' + text.replace('"', '""') + '"'
    return text


def _text_fields(column: Sequence[str]) -> Iterable[str]:
    """A column of str ids as CSV fields. One search over the joined column
    decides; only a column that holds a character needing quotes is quoted
    value by value."""
    joined = "".join(column)
    if any(char in joined for char in _QUOTED_CHARS):
        return map(_quote_field, column)
    return column


def write_observations_csv(observations: Observations, fh: TextIO) -> int:
    """Write observations in the canonical CSV layout; returns the row count.

    Each column is converted with one map() call and each row is one
    str.join, so no Python code runs per row unless an id needs quoting. The
    rows go to fh in chunks of _WRITE_CHUNK.
    """
    system_ids, entity_ids, lats, lons, kinds, observed_ats = observations.columns()
    rows = map(
        ",".join,
        zip(
            _text_fields(list(system_ids)),
            _text_fields(entity_ids),
            map(repr, lats),
            map(repr, lons),
            map(KIND_TEXT.__getitem__, kinds),
            map(str, observed_ats),
        ),
    )
    fh.write(",".join(OBSERVATION_COLUMNS) + "\n")
    while chunk := list(islice(rows, _WRITE_CHUNK)):
        chunk.append("")  # the last row's line end
        fh.write("\n".join(chunk))
    return len(observations)


def _csv_rows(fh: TextIO) -> Iterator[list[str]]:
    """csv.reader over fh, raising unreadable input as ParseError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"observation CSV line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"observation CSV is not UTF-8 text: {exc}") from None


def read_observations_csv(fh: TextIO) -> Observations:
    """Read observations from the canonical CSV layout, as columns.

    Columns are found by header name, so their order is free and extra
    columns are ignored; when a name repeats, its last column is read. Blank
    lines are skipped, and a field missing from a short row reads as absent.
    Every row holds str ids, float degrees, a DockingType and an int.

    Raises:
        SchemaError: a required column is missing, a row is short of its
            system_id or entity_id field, or a docking_type is unknown (the
            message names the data row, as below).
        ParseError: a lat or lon that is not a finite number of degrees in
            range, or an observed_at that is not an integer (the message names
            the data row, counted from 1 after the header, blank lines not
            counted); text that is not UTF-8 or not CSV.

    The columns pass valid_observation_values. A change to what this
    accepts or returns must change that rule with it and bump
    _CACHE_VERSION.
    """
    reader = _csv_rows(fh)
    header = next(reader, [])
    position = {name: index for index, name in enumerate(header)}
    missing = [column for column in OBSERVATION_COLUMNS if column not in position]
    if missing:
        raise SchemaError(f"observation CSV missing column(s): {', '.join(missing)}")
    fields = operator.itemgetter(*(position[column] for column in OBSERVATION_COLUMNS))
    width = len(header)
    id_positions = [(column, position[column]) for column in OBSERVATION_COLUMNS[:2]]
    system_ids, entity_ids, kinds, observed_ats = [], [], [], []
    lats, lons = array("d"), array("d")
    row_number = 0
    for row in reader:
        if not row:
            continue
        row_number += 1
        if len(row) < width:
            absent = [column for column, index in id_positions if index >= len(row)]
            if absent:
                raise SchemaError(
                    f"observation CSV row {row_number}: no {', '.join(absent)} field"
                )
            row += [None] * (width - len(row))
        system_id, entity_id, lat_text, lon_text, kind_text, observed_text = fields(row)
        kind = TEXT_KIND.get(kind_text)
        if kind is None:
            raise SchemaError(
                f"observation CSV row {row_number}: unknown docking_type {kind_text!r}"
            )
        try:
            lat = float(lat_text)
            lon = float(lon_text)
        except (TypeError, ValueError):
            lat = lon = math.nan
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):  # NaN fails too
            if math.isfinite(lat) and math.isfinite(lon):
                problem = "are outside [-90, 90] x [-180, 180] degrees"
            else:
                problem = "are not both finite numbers"
            raise ParseError(
                f"observation CSV row {row_number}: lat, lon "
                f"({lat_text!r}, {lon_text!r}) {problem}"
            )
        try:
            observed_at = int(observed_text)
        except (TypeError, ValueError):
            raise ParseError(
                f"observation CSV row {row_number}: observed_at "
                f"{observed_text!r} is not an integer"
            ) from None
        system_ids.append(system_id)
        entity_ids.append(entity_id)
        lats.append(lat)
        lons.append(lon)
        kinds.append(kind)
        observed_ats.append(observed_at)
    return Observations.from_columns(system_ids, entity_ids, lats, lons, kinds, observed_ats)


def valid_observation_values(
    system_ids: Iterable, entity_ids: Iterable, lats: Sequence[float], lons: Sequence[float],
    kinds: Iterable, observed_ats: Iterable,
) -> bool:
    """Whether each column holds only values that read_observations_csv can
    put in it: str ids, lats in [-90, 90] and lons in [-180, 180] (finite),
    DockingTypes, and int observed_ats (a bool is not one). lats and lons
    are sequences of floats; only their values are checked. The columns may have
    any lengths, so a column of distinct values stands for a longer one. A
    cached read serves no column that fails this.

    The ids are checked with one str.join, which takes an instance of a str
    subclass too; JSON decodes none, and read_observations_csv returns plain
    str."""
    try:
        "".join(chain(system_ids, entity_ids))
    except TypeError:
        return False
    return (
        set(map(type, kinds)) <= {DockingType}
        and set(map(type, observed_ats)) <= {int}
        and _within(lats, 90.0)
        and _within(lons, 180.0)
    )


def _within(degrees: Sequence[float], limit: float) -> bool:
    """Whether every value is finite and in [-limit, limit]. An array("d")
    is read in place, as a float64 view."""
    # Imported here: only a cached snapshot read needs it, and this module is
    # on the harvest path, which never reads one.
    import numpy as np

    values = np.asarray(degrees, dtype=np.float64)
    return not values.size or bool(
        np.isfinite(values).all() and -limit <= values.min() and values.max() <= limit
    )


MANIFEST_NAME = "manifest.csv"

# Part of every snapshot cache key: a change to the cache file's layout, or
# to the inputs read_observations_csv accepts or the columns it returns for
# them, must bump it, so no file written before the change is ever read.
_CACHE_VERSION = 3

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
    observations: Observations,
    store_path: str | Path,
    clock: Callable[[], float] = time.time,
) -> SnapshotReceipt:
    """Write observations as a new immutable snapshot and return its receipt.

    Snapshot ids increase with each append; an id whose file already exists
    (taken by a concurrent append, or left by a crash before its manifest
    line) is skipped. The snapshot's observed_at is the newest observation
    timestamp, or the clock when there is none. A failed write leaves no
    partial file behind.

    Raises:
        StorageError: the store cannot be written, or an id cannot be
            encoded as UTF-8 (a lone surrogate, say).
    """
    store = Path(store_path)
    try:
        store.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create store at {store}: {exc}") from exc
    existing = _read_manifest(store)
    snapshot_id = existing[-1].snapshot_id + 1 if existing else 1
    if observations:
        observed_at = max(_values(observations.observed_at_runs))
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
    except (OSError, UnicodeEncodeError) as exc:
        raise StorageError(f"cannot write snapshot to {store}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            tmp_path.unlink()
    try:
        with open(store / MANIFEST_NAME, "a", encoding="utf-8") as fh:
            fh.write(f"{snapshot_id},{observed_at},{row_count},{filename}\n")
    except OSError as exc:
        raise StorageError(f"cannot update manifest in {store}: {exc}") from exc
    systems = tuple(sorted(set(_values(observations.system_id_runs))))
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
            path, cache_dir, f"snapshot-v{_CACHE_VERSION}",
            _parse_csv, _encode, _decode,
        )
    except OSError as exc:
        raise StorageError(f"manifest names missing snapshot file {path}") from exc


def _parse_csv(data: bytes) -> Observations:
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        return read_observations_csv(fh)


def _encode(observations: Observations) -> tuple[dict, tuple]:
    """The cache file's header (n, the run-length columns, the ids'
    separator and the id text's length in bytes) and body (the lat and lon
    columns, then the id text)."""
    separator, text = _id_text(observations.entity_ids)
    id_text = text.encode("utf-8")
    header = {
        "n": len(observations),
        "system_id": observations.system_id_runs,
        "separator": separator,
        "id_bytes": len(id_text),
        "docking_type": [
            [KIND_TEXT[kind], count] for kind, count in observations.docking_type_runs
        ],
        "observed_at": observations.observed_at_runs,
    }
    return header, (observations.lats, observations.lons, id_text)


def _id_text(ids: Sequence[str]) -> tuple[str | None, str]:
    """The first code point that occurs in no id, and the ids joined by it;
    (None, "") when the ids use every code point, which makes the cache file
    a miss. U+0000 is tried with one join, and is almost always the one."""
    text = "\0".join(ids)
    if text.count("\0") == max(len(ids) - 1, 0):
        return "\0", text
    used = set(text)
    # Every code point UTF-8 can encode: all but the surrogates.
    for code_point in chain(range(0xD800), range(0xE000, 0x110000)):
        if chr(code_point) not in used:
            return chr(code_point), chr(code_point).join(ids)
    return None, ""


def _decode(header: dict, body: memoryview) -> Observations:
    """The columns of a cache file; raises (a miss) unless its run lengths
    and body add up to n, the id_bytes after the coordinates are UTF-8 text
    that the separator (one character) splits into n ids, and its other
    values pass the CSV reader's own rule (valid_observation_values). The
    ids need no check: a split returns str. They stay joined until they are
    read."""
    n, separator, id_bytes = header["n"], header["separator"], header["id_bytes"]
    runs = [header[column] for column in ("system_id", "docking_type", "observed_at")]
    if not (
        type(n) is int
        and all(_valid_runs(column, n) for column in runs)
        and type(id_bytes) is int
        and len(body) == 16 * n + id_bytes
        and type(separator) is str
        and len(separator) == 1
    ):
        raise ValueError("columns do not add up to n")
    text = str(body[16 * n:], "utf-8")
    # n ids hold n - 1 separators; no ids, no text.
    if (text.count(separator) + 1 if n else len(text)) != n:
        raise ValueError("the id text does not hold n ids")
    entity_ids = _JoinedIds(separator, text) if n else []
    systems, kinds, observed_ats = runs
    kinds = [[TEXT_KIND[value], count] for value, count in kinds]
    lats, lons = array("d"), array("d")
    lats.frombytes(body[:8 * n])
    lons.frombytes(body[8 * n:16 * n])
    if not valid_observation_values(
        _values(systems), (), lats, lons, _values(kinds), _values(observed_ats)
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
    (start, end) inclusive observed_at range, as an Observations.

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
