"""Tract-level aggregation: counts, demographic joins, scaling, model frame.

Collapses geocoded observations to per-tract docked/free counts, applies the
zero-county filter, joins the user-supplied demographics table, min-max scales
the five predictors over the retained tracts, and lays out the long-format
design (two rows per tract, docked indicator plus interactions) for the count
regression. Also produces per-docking-type system summaries.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path
from typing import TextIO

import numpy as np

from . import content_cache
from .errors import EmptyFrameError, ParseError, ScalingError, SchemaError
from .geo import COUNTY_PREFIX_LENGTH, TractIndex, assign_ranks
from .poisson_glm import DesignMatrix
from .snapshot_store import DockingType, Observations

PREDICTOR_NAMES = (
    "pct_college",
    "pct_poverty",
    "pct_nonwhite",
    "pop_density",
    "job_density",
)

DESIGN_COLUMNS = (
    "intercept",
    *PREDICTOR_NAMES,
    "docking_type",
    *[f"{name}_x_docking_type" for name in PREDICTOR_NAMES],
)

DEMOGRAPHICS_COLUMNS = ("tract_geoid", *PREDICTOR_NAMES)


@dataclass(frozen=True)
class DemographicsRow:
    tract_geoid: str
    pct_college: float
    pct_poverty: float
    pct_nonwhite: float
    pop_density: float
    job_density: float


@dataclass(frozen=True)
class TractCount:
    tract_geoid: str
    count_docked: int
    count_free: int

    @property
    def county_geoid(self) -> str:
        return self.tract_geoid[:COUNTY_PREFIX_LENGTH]


@dataclass(frozen=True)
class TractRecord:
    tract_geoid: str
    county_geoid: str
    count_docked: int
    count_free: int
    demographics: DemographicsRow


@dataclass
class CountDiagnostics:
    unassigned: int = 0


@dataclass
class JoinDiagnostics:
    unmatched: int = 0


@dataclass(frozen=True)
class ModelFrame:
    """Long-format design: two rows per tract (free first, then docked)."""

    tract_geoids: tuple[str, ...]
    response: np.ndarray
    design: DesignMatrix


@dataclass(frozen=True)
class SystemSummary:
    docking_type: DockingType
    total_bikes: int
    n_systems: int
    q25: float
    q50: float
    q75: float


@dataclass(eq=False)
class TractTable(Sequence):
    """Tracts as columns: the GEOIDs, the docked and free counts as an (n, 2)
    int array and the five predictors as an (n, 5) float64 array; a table of
    counts has no predictors, one of demographics no counts (None). It is a
    read-only sequence of TractRecords (TractCounts, DemographicsRows) built
    on access, with no __eq__: compare list(table). The stages build none.
    """

    geoids: list[str]
    counts: np.ndarray | None
    predictors: np.ndarray | None

    def __len__(self) -> int:
        return len(self.geoids)

    def __getitem__(self, index: int) -> TractRecord | TractCount | DemographicsRow:
        position = operator.index(index)
        geoid = self.geoids[position]
        if self.counts is None:
            return DemographicsRow(geoid, *self.predictors[position].tolist())
        docked, free = self.counts[position].tolist()
        if self.predictors is None:
            return TractCount(geoid, docked, free)
        return TractRecord(
            geoid, geoid[:COUNTY_PREFIX_LENGTH], docked, free,
            DemographicsRow(geoid, *self.predictors[position].tolist()),
        )

    def take(self, positions: list[int]) -> TractTable:
        """The rows at these positions, in their order."""
        return TractTable(
            [self.geoids[position] for position in positions],
            None if self.counts is None else self.counts[positions],
            None if self.predictors is None else self.predictors[positions],
        )


def count_by_tract(
    observations: Observations, index: TractIndex
) -> tuple[TractTable, CountDiagnostics]:
    """Per-tract docked/free observation counts over every tract in the index.

    Tracts receiving no observations appear zero-filled; observations falling
    in no tract are dropped and tallied in the diagnostics.
    """
    kinds = observations.docking_type_runs
    is_free = np.repeat(
        np.array([kind is not DockingType.DOCKED for kind, _ in kinds], dtype=bool),
        np.array([count for _, count in kinds], dtype=np.intp),
    )
    ranks = assign_ranks(
        np.array(observations.lats, dtype=np.float64),
        np.array(observations.lons, dtype=np.float64),
        index,
    )
    # Row r of the tally holds rank r's (docked, free) counts; the last row,
    # rank len(geoids), the observations in no tract.
    geoids = index.geoids()
    tally = np.bincount(ranks * 2 + is_free, minlength=2 * len(geoids) + 2).reshape(-1, 2)
    return TractTable(geoids, tally[:-1], None), CountDiagnostics(unassigned=int(tally[-1].sum()))


def filter_zero_counties(table: TractTable) -> TractTable:
    """Keep tracts whose county has at least one tract with any bikes.

    Zero-count tracts inside an active county are retained; whole counties
    with no bikes anywhere are dropped. Works on a table with counts, and is
    idempotent.
    """
    busy = table.counts.sum(axis=1) > 0
    active = {geoid[:COUNTY_PREFIX_LENGTH] for geoid in compress(table.geoids, busy)}
    return table.take([
        position for position, geoid in enumerate(table.geoids)
        if geoid[:COUNTY_PREFIX_LENGTH] in active
    ])


def join_demographics(
    counts: TractTable, demo_table: TractTable
) -> tuple[TractTable, JoinDiagnostics]:
    """Inner-join counts with demographics on tract_geoid.

    Count rows without a demographics match are dropped and tallied;
    demographics rows without a counted tract are ignored.

    Raises:
        SchemaError: duplicate tract_geoid in the demographics table.
    """
    row_of: dict[str, int] = {}
    for row, geoid in enumerate(demo_table.geoids):
        if row_of.setdefault(geoid, row) != row:
            raise SchemaError(f"duplicate tract_geoid in demographics: {geoid}")
    joined = counts.take(
        [position for position, geoid in enumerate(counts.geoids) if geoid in row_of]
    )
    joined.predictors = demo_table.predictors[[row_of[geoid] for geoid in joined.geoids]]
    return joined, JoinDiagnostics(unmatched=len(counts) - len(joined))


def scale_predictors(
    table: TractTable,
) -> tuple[TractTable, dict[str, tuple[float, float]]]:
    """Min-max scale each predictor to [0, 1] over the table's tracts.

    Returns the rescaled table plus {predictor: (min, max)} metadata so any
    coefficient can later be unscaled. Run this after the zero-county filter so
    dropped tracts cannot leak into the scaling.

    Raises:
        ScalingError: a predictor is constant over the tracts.
    """
    if not table:
        raise ScalingError("no records to scale")
    values = table.predictors
    # Each bound is the first value in record order equal to the column's
    # extreme, as Python's min and max give it: 0.0 and -0.0 are equal, but
    # their reprs differ and the bounds go into the run manifest.
    columns = np.arange(values.shape[1])
    low = values[np.argmax(values == values.min(axis=0), axis=0), columns]
    high = values[np.argmax(values == values.max(axis=0), axis=0), columns]
    bounds = dict(zip(PREDICTOR_NAMES, zip(low.tolist(), high.tolist())))
    for name, (low_value, high_value) in bounds.items():
        if low_value == high_value:
            raise ScalingError(
                f"predictor {name} is constant ({low_value!r}) over the retained tracts"
            )
    return TractTable(table.geoids, table.counts, (values - low) / (high - low)), bounds


def build_model_frame(table: TractTable) -> ModelFrame:
    """Long-format frame: per tract a free row (indicator 0) and a docked row
    (indicator 1), with the 12 fixed design columns including interactions.

    Raises:
        EmptyFrameError: the table has no tracts.
    """
    if not table:
        raise EmptyFrameError("cannot build a model frame from zero tract records")
    # A stable sort: tracts with equal GEOIDs keep their order.
    table = table.take(sorted(range(len(table)), key=table.geoids.__getitem__))
    k = len(PREDICTOR_NAMES)
    values = np.empty((2 * len(table), len(DESIGN_COLUMNS)))
    values[:, 0] = 1.0
    values[:, 1:1 + k] = np.repeat(table.predictors, 2, axis=0)
    values[:, 1 + k] = np.tile([0.0, 1.0], len(table))
    values[:, 2 + k:] = values[:, 1:1 + k] * values[:, 1 + k:2 + k]
    return ModelFrame(
        tract_geoids=tuple(chain.from_iterable(zip(table.geoids, table.geoids))),
        response=table.counts[:, ::-1].ravel(),  # free, then docked
        design=DesignMatrix(values, DESIGN_COLUMNS),
    )


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear interpolation between order statistics (the common type-7 rule)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("quantile of empty sequence")
    if n == 1:
        return float(sorted_values[0])
    position = (n - 1) * q
    low = math.floor(position)
    high = min(low + 1, n - 1)
    fraction = position - low
    return float(
        sorted_values[low] + fraction * (sorted_values[high] - sorted_values[low])
    )


def _merged_runs(first: list, second: list):
    """(first value, second value, count) for each stretch of rows over which
    neither of two [value, count] run lists that cover the same rows changes."""
    second = iter(second)
    left = 0
    for first_value, count in first:
        while count:
            if not left:
                second_value, left = next(second)
            taken = min(count, left)
            yield first_value, second_value, taken
            count -= taken
            left -= taken


def summarize_systems(observations: Observations) -> list[SystemSummary]:
    """Totals, system counts, and per-system quartiles for each docking type.

    Dockless (free) comes first, then docked; a docking type with no
    observations is omitted. The counts come from the docking_type and
    system_id runs of the observations' columns, merged run by run.
    """
    if not observations:
        raise ValueError("summarize_systems requires at least one observation")
    per_pair: Counter = Counter()
    for kind, system_id, count in _merged_runs(
        observations.docking_type_runs, observations.system_id_runs
    ):
        per_pair[kind, system_id] += count
    summaries: list[SystemSummary] = []
    for docking_type in (DockingType.FREE, DockingType.DOCKED):
        counts = sorted(
            count for (kind, _), count in per_pair.items() if kind is docking_type
        )
        if not counts:
            continue
        summaries.append(
            SystemSummary(
                docking_type=docking_type,
                total_bikes=sum(counts),
                n_systems=len(counts),
                q25=quantile(counts, 0.25),
                q50=quantile(counts, 0.50),
                q75=quantile(counts, 0.75),
            )
        )
    return summaries


# Part of every demographics cache key: a change to the cache file's layout,
# or to the inputs read_demographics_csv accepts or the table it returns for
# them, must bump it, so no file written before the change is ever read.
_CACHE_VERSION = 1


def read_demographics_csv(
    source: str | Path | TextIO, *, cache_dir: str | Path | None = None
) -> TractTable:
    """Load the demographics table from CSV: columns are found by header name
    (the last of a repeated name), blank lines are skipped. Fields are parsed
    with float() as the lines are read, and their ranges are checked on the
    columns, so the error raised is always the first bad line's.

    With ``cache_dir`` and a path, the table of a file that read cleanly is
    kept there (``demographics-v1-<sha256>``: the GEOIDs in the header, the
    (n, 5) float64 predictors as the body), and a later read of the same
    bytes loads it instead of parsing the CSV. A cache file that is missing,
    unreadable or not written for these bytes is a miss (and is replaced);
    a directory that cannot be written is left alone. Either way the result
    and the errors are those of a read without the cache.

    Raises:
        SchemaError: missing header columns, or a row with a missing,
            unparseable or out-of-range value (the message names its line).
        ParseError: the file cannot be read, is not UTF-8 text, or is not CSV.
    """
    try:
        if hasattr(source, "read"):
            return _parse_text(source.read())
        return content_cache.load(
            source, cache_dir, f"demographics-v{_CACHE_VERSION}", _parse_demographics,
            _encode_demographics, _decode_demographics, align=8,
        )
    except OSError as exc:
        raise ParseError(f"cannot read demographics file {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"demographics file is not UTF-8 text at byte {exc.start}", offset=exc.start
        ) from None


def _parse_demographics(data: bytes) -> TractTable:
    # Newlines are translated as a text-mode read of the file translates them.
    return _parse_text(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())


def _parse_text(text: str) -> TractTable:
    # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark.
    lines = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    geoids, rows, line_numbers = [], [], []
    error = None
    try:
        position = {name: index for index, name in enumerate(next(lines, []))}
        missing = [column for column in DEMOGRAPHICS_COLUMNS if column not in position]
        if missing:
            raise SchemaError(f"demographics header missing column(s): {', '.join(missing)}")
        indices = [position[column] for column in DEMOGRAPHICS_COLUMNS]
        width = max(indices) + 1
        pick = operator.itemgetter(*indices)
        for fields in lines:
            if not fields:
                continue
            if len(fields) < width:
                absent = [column for column, index in zip(DEMOGRAPHICS_COLUMNS, indices)
                          if index >= len(fields)]
                raise ValueError(f"no {', '.join(absent)} field")
            geoid, *predictors = pick(fields)
            rows.append(list(map(float, predictors)))
            geoids.append(geoid.strip())
            line_numbers.append(lines.line_num)
    except ValueError as exc:
        error = SchemaError(f"demographics line {lines.line_num}: {exc}")
    except csv.Error as exc:
        error = ParseError(f"demographics line {lines.line_num}: {exc}")
    values = np.array(rows, dtype=np.float64).reshape(-1, len(PREDICTOR_NAMES))
    in_range = _rows_in_range(values)
    if not in_range.all():
        # The first such line comes before any line that failed to parse.
        row = int(np.argmin(in_range))
        raise SchemaError(f"demographics line {line_numbers[row]}: {_range_problem(rows[row])}")
    if error is not None:
        raise error
    return TractTable(geoids, None, values)


def _rows_in_range(values: np.ndarray) -> np.ndarray:
    """Per row of an (n, 5) predictor array, whether its fractions lie in
    [0, 1] and its densities are finite and non-negative (NaN fails)."""
    fractions, densities = values[:, :3], values[:, 3:]
    return (((fractions >= 0.0) & (fractions <= 1.0)).all(axis=1)
            & (np.isfinite(densities) & (densities >= 0.0)).all(axis=1))


def _range_problem(row: list[float]) -> str:
    """What is wrong with the first field of a row that _rows_in_range fails,
    found by _rows_in_range itself: each field alone in a row of zeros."""
    probe = np.zeros((len(row), len(row)))
    np.fill_diagonal(probe, row)
    field = int(np.argmin(_rows_in_range(probe)))
    rule = "must lie in [0, 1]" if field < 3 else "must be a non-negative number"
    return f"{PREDICTOR_NAMES[field]} {rule}, got {row[field]!r}"


def _encode_demographics(table: TractTable) -> tuple[dict, list[np.ndarray]]:
    """The cache file's header (n and the GEOIDs) and body (the predictors,
    8-byte aligned, so a hit's array is an aligned view of the file)."""
    return {"n": len(table), "geoids": table.geoids}, [table.predictors]


def _decode_demographics(header: dict, body: memoryview) -> TractTable:
    """The table of a cache file; raises (a miss) unless it holds n str
    GEOIDs and n rows of predictors that the reader's range check passes."""
    n, geoids = header["n"], header["geoids"]
    width = len(PREDICTOR_NAMES)
    if not (
        type(n) is int and type(geoids) is list and len(geoids) == n
        and {*map(type, geoids)} <= {str}
        and len(body) == 8 * width * n
    ):
        raise ValueError("GEOIDs and predictors do not add up to n")
    values = np.frombuffer(body, np.float64, width * n).reshape(n, width)
    if not _rows_in_range(values).all():
        raise ValueError("a value the CSV reader would not return")
    return TractTable(geoids, None, values)


def write_model_frame_csv(frame: ModelFrame, fh: TextIO) -> None:
    """Export the design columns plus tract_geoid and response."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([*frame.design.column_names, "tract_geoid", "response"])
    for row, geoid, count in zip(
        frame.design.values, frame.tract_geoids, frame.response
    ):
        writer.writerow([*(repr(float(value)) for value in row), geoid, int(count)])
