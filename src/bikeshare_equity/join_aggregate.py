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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import EmptyFrameError, ParseError, ScalingError, SchemaError
from .gbfs_client import BikeObservation, DockingType, as_observations
from .geo import COUNTY_PREFIX_LENGTH, TractIndex, assign_ranks
from .poisson_glm import DesignMatrix

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

    def __post_init__(self):
        for name in ("pct_college", "pct_poverty", "pct_nonwhite"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name in ("pop_density", "job_density"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a non-negative number, got {value!r}")

    def predictor(self, name: str) -> float:
        if name not in PREDICTOR_NAMES:
            raise KeyError(name)
        return getattr(self, name)


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


def count_by_tract(
    observations: Iterable[BikeObservation], index: TractIndex
) -> tuple[list[TractCount], CountDiagnostics]:
    """Per-tract docked/free observation counts over every tract in the index.

    Tracts receiving no observations appear zero-filled; observations falling
    in no tract are dropped and tallied in the diagnostics.
    """
    observations = as_observations(observations)
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
    counts = [
        TractCount(geoid, docked, free)
        for geoid, (docked, free) in zip(geoids, tally[:-1].tolist())
    ]
    return counts, CountDiagnostics(unassigned=int(tally[-1].sum()))


def filter_zero_counties(records: list) -> list:
    """Keep tracts whose county has at least one tract with any bikes.

    Zero-count tracts inside an active county are retained; whole counties
    with no bikes anywhere are dropped. Works on TractCount or TractRecord
    rows, and is idempotent.
    """
    active = {
        record.county_geoid
        for record in records
        if record.count_docked + record.count_free > 0
    }
    return [record for record in records if record.county_geoid in active]


def join_demographics(
    counts: Iterable[TractCount], demo_table: Iterable[DemographicsRow]
) -> tuple[list[TractRecord], JoinDiagnostics]:
    """Inner-join counts with demographics on tract_geoid.

    Count rows without a demographics match are dropped and tallied;
    demographics rows without a counted tract are ignored.

    Raises:
        SchemaError: duplicate tract_geoid in the demographics table.
    """
    by_geoid: dict[str, DemographicsRow] = {}
    for row in demo_table:
        if row.tract_geoid in by_geoid:
            raise SchemaError(f"duplicate tract_geoid in demographics: {row.tract_geoid}")
        by_geoid[row.tract_geoid] = row
    records: list[TractRecord] = []
    diagnostics = JoinDiagnostics()
    for count in counts:
        demo = by_geoid.get(count.tract_geoid)
        if demo is None:
            diagnostics.unmatched += 1
            continue
        records.append(
            TractRecord(
                tract_geoid=count.tract_geoid,
                county_geoid=count.county_geoid,
                count_docked=count.count_docked,
                count_free=count.count_free,
                demographics=demo,
            )
        )
    return records, diagnostics


def scale_predictors(
    records: Sequence[TractRecord],
) -> tuple[list[TractRecord], dict[str, tuple[float, float]]]:
    """Min-max scale each predictor to [0, 1] over the given records.

    Returns the rescaled records plus {predictor: (min, max)} metadata so any
    coefficient can later be unscaled. Run this after the zero-county filter so
    dropped tracts cannot leak into the scaling.

    Raises:
        ScalingError: a predictor is constant over the records.
    """
    if not records:
        raise ScalingError("no records to scale")
    bounds: dict[str, tuple[float, float]] = {}
    for name in PREDICTOR_NAMES:
        values = [record.demographics.predictor(name) for record in records]
        low, high = min(values), max(values)
        if low == high:
            raise ScalingError(
                f"predictor {name} is constant ({low!r}) over the retained tracts"
            )
        bounds[name] = (low, high)
    scaled: list[TractRecord] = []
    for record in records:
        rescaled = {
            name: (record.demographics.predictor(name) - bounds[name][0])
            / (bounds[name][1] - bounds[name][0])
            for name in PREDICTOR_NAMES
        }
        scaled.append(
            TractRecord(
                tract_geoid=record.tract_geoid,
                county_geoid=record.county_geoid,
                count_docked=record.count_docked,
                count_free=record.count_free,
                demographics=DemographicsRow(record.tract_geoid, **rescaled),
            )
        )
    return scaled, bounds


def build_model_frame(records: Sequence[TractRecord]) -> ModelFrame:
    """Long-format frame: per tract a free row (indicator 0) and a docked row
    (indicator 1), with the 12 fixed design columns including interactions.

    Raises:
        EmptyFrameError: no records supplied.
    """
    if not records:
        raise EmptyFrameError("cannot build a model frame from zero tract records")
    geoids: list[str] = []
    response: list[int] = []
    rows: list[list[float]] = []
    for record in sorted(records, key=lambda record: record.tract_geoid):
        predictors = [record.demographics.predictor(name) for name in PREDICTOR_NAMES]
        for indicator, count in ((0.0, record.count_free), (1.0, record.count_docked)):
            rows.append(
                [1.0, *predictors, indicator, *(value * indicator for value in predictors)]
            )
            response.append(count)
            geoids.append(record.tract_geoid)
    design = DesignMatrix(np.array(rows, dtype=float), DESIGN_COLUMNS)
    return ModelFrame(
        tract_geoids=tuple(geoids),
        response=np.array(response, dtype=int),
        design=design,
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


def summarize_systems(observations: Iterable[BikeObservation]) -> list[SystemSummary]:
    """Totals, system counts, and per-system quartiles for each docking type.

    Dockless (free) comes first, then docked; a docking type with no
    observations is omitted. The counts come from the docking_type and
    system_id runs of the observations' columns, merged run by run.
    """
    observations = as_observations(observations)
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


def read_demographics_csv(source: str | Path | TextIO) -> list[DemographicsRow]:
    """Load the demographics table from CSV.

    Raises:
        SchemaError: missing header columns, or a row with a missing or
            unparseable value (the message names its line).
        ParseError: the file cannot be read, is not UTF-8 text, or is not CSV.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read demographics file {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"demographics file is not UTF-8 text at byte {exc.start}", offset=exc.start
        ) from None
    lines = csv.reader(io.StringIO(text))
    try:
        return _demographics_rows(lines)
    except csv.Error as exc:
        raise ParseError(f"demographics line {lines.line_num}: {exc}") from None


def _demographics_rows(lines) -> list[DemographicsRow]:
    """Rows of a csv.reader over the table: columns are found by header name
    (the last of a repeated name), blank lines are skipped."""
    header = next(lines, [])
    position = {name: index for index, name in enumerate(header)}
    missing = [column for column in DEMOGRAPHICS_COLUMNS if column not in position]
    if missing:
        raise SchemaError(
            f"demographics header missing column(s): {', '.join(missing)}"
        )
    indices = [position[column] for column in DEMOGRAPHICS_COLUMNS]
    width = max(indices) + 1
    rows: list[DemographicsRow] = []
    for fields in lines:
        if not fields:
            continue
        if len(fields) < width:
            absent = [column for column, index in zip(DEMOGRAPHICS_COLUMNS, indices)
                      if index >= len(fields)]
            raise SchemaError(
                f"demographics line {lines.line_num}: no {', '.join(absent)} field"
            )
        geoid, *predictors = (fields[index] for index in indices)
        try:
            rows.append(DemographicsRow(geoid.strip(), *map(float, predictors)))
        except ValueError as exc:
            raise SchemaError(f"demographics line {lines.line_num}: {exc}") from exc
    return rows


def write_model_frame_csv(frame: ModelFrame, fh: TextIO) -> None:
    """Export the design columns plus tract_geoid and response."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([*frame.design.column_names, "tract_geoid", "response"])
    for row, geoid, count in zip(
        frame.design.values, frame.tract_geoids, frame.response
    ):
        writer.writerow([*(repr(float(value)) for value in row), geoid, int(count)])
