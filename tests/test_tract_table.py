"""The columnar tract table against the record implementation it replaced.

The reference functions below are the per-row stages as they were: each
builds a frozen record per tract. On seeded random tables both paths must
give equal records (compared by repr, so 0.0 and -0.0 differ), the same
design and response bytes, the same scaling bounds' reprs, and the same
errors with the same text.
"""

import csv
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_equity.errors import EmptyFrameError, ParseError, ScalingError, SchemaError
from bikeshare_equity.join_aggregate import (
    DEMOGRAPHICS_COLUMNS,
    DESIGN_COLUMNS,
    PREDICTOR_NAMES,
    DemographicsRow,
    TractCount,
    TractRecord,
    TractTable,
    build_model_frame,
    filter_zero_counties,
    join_demographics,
    read_demographics_csv,
    scale_predictors,
)
from bikeshare_equity.poisson_glm import DesignMatrix
from helpers import checked_demographics_row, tract_table_of

# ---------------------------------------------------------------------------
# The record implementation, kept as the reference
# ---------------------------------------------------------------------------


def ref_filter_zero_counties(records):
    active = {
        record.county_geoid
        for record in records
        if record.count_docked + record.count_free > 0
    }
    return [record for record in records if record.county_geoid in active]


def ref_join_demographics(counts, demo_table):
    by_geoid = {}
    for row in demo_table:
        if row.tract_geoid in by_geoid:
            raise SchemaError(f"duplicate tract_geoid in demographics: {row.tract_geoid}")
        by_geoid[row.tract_geoid] = row
    records = []
    unmatched = 0
    for count in counts:
        demo = by_geoid.get(count.tract_geoid)
        if demo is None:
            unmatched += 1
            continue
        records.append(
            TractRecord(count.tract_geoid, count.county_geoid, count.count_docked,
                        count.count_free, demo)
        )
    return records, unmatched


def ref_scale_predictors(records):
    if not records:
        raise ScalingError("no records to scale")
    bounds = {}
    for name in PREDICTOR_NAMES:
        values = [getattr(record.demographics, name) for record in records]
        low, high = min(values), max(values)
        if low == high:
            raise ScalingError(
                f"predictor {name} is constant ({low!r}) over the retained tracts"
            )
        bounds[name] = (low, high)
    scaled = []
    for record in records:
        rescaled = {
            name: (getattr(record.demographics, name) - bounds[name][0])
            / (bounds[name][1] - bounds[name][0])
            for name in PREDICTOR_NAMES
        }
        scaled.append(
            TractRecord(record.tract_geoid, record.county_geoid, record.count_docked,
                        record.count_free, DemographicsRow(record.tract_geoid, **rescaled))
        )
    return scaled, bounds


def ref_build_model_frame(records):
    if not records:
        raise EmptyFrameError("cannot build a model frame from zero tract records")
    geoids, response, rows = [], [], []
    for record in sorted(records, key=lambda record: record.tract_geoid):
        predictors = [getattr(record.demographics, name) for name in PREDICTOR_NAMES]
        for indicator, count in ((0.0, record.count_free), (1.0, record.count_docked)):
            rows.append(
                [1.0, *predictors, indicator, *(value * indicator for value in predictors)]
            )
            response.append(count)
            geoids.append(record.tract_geoid)
    design = DesignMatrix(np.array(rows, dtype=float), DESIGN_COLUMNS)
    return tuple(geoids), np.array(response, dtype=int), design


def ref_read_demographics_csv(text):
    lines = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        return _ref_demographics_rows(lines)
    except csv.Error as exc:
        raise ParseError(f"demographics line {lines.line_num}: {exc}") from None


def _ref_demographics_rows(lines):
    header = next(lines, [])
    position = {name: index for index, name in enumerate(header)}
    missing = [column for column in DEMOGRAPHICS_COLUMNS if column not in position]
    if missing:
        raise SchemaError(f"demographics header missing column(s): {', '.join(missing)}")
    indices = [position[column] for column in DEMOGRAPHICS_COLUMNS]
    width = max(indices) + 1
    rows = []
    for fields in lines:
        if not fields:
            continue
        if len(fields) < width:
            absent = [column for column, index in zip(DEMOGRAPHICS_COLUMNS, indices)
                      if index >= len(fields)]
            raise SchemaError(f"demographics line {lines.line_num}: no {', '.join(absent)} field")
        geoid, *predictors = (fields[index] for index in indices)
        try:
            rows.append(checked_demographics_row(geoid.strip(), *map(float, predictors)))
        except ValueError as exc:
            raise SchemaError(f"demographics line {lines.line_num}: {exc}") from exc
    return rows


# ---------------------------------------------------------------------------
# Seeded random tables
# ---------------------------------------------------------------------------

VALUES = {
    "fraction": (0.0, -0.0, 1.0, 0.25, 0.5),
    "density": (0.0, -0.0, 1.0, 12.5, 3000.0, 1e-300),
}


def random_value(rng, kind):
    if rng.random() < 0.3:
        return rng.choice(VALUES[kind])
    return rng.uniform(0.0, 1.0) if kind == "fraction" else rng.uniform(0.0, 5000.0)


def random_demographics(rng, geoid):
    return DemographicsRow(
        geoid, *(random_value(rng, "fraction") for _ in range(3)),
        *(random_value(rng, "density") for _ in range(2)),
    )


def random_tables(seed):
    """Counts over a few counties (some wholly zero), with repeated GEOIDs
    and in no particular order, and demographics for most counted tracts
    plus some uncounted ones, also unordered."""
    rng = random.Random(seed)
    counties = [f"{rng.randrange(10, 60):02d}{rng.randrange(1, 200):03d}" for _ in range(4)]
    geoids = [f"{rng.choice(counties)}{rng.randrange(1, 40):06d}" for _ in range(rng.randrange(1, 40))]
    if rng.random() < 0.5:
        geoids += rng.sample(geoids, k=min(3, len(geoids)))  # tied GEOIDs
    zero_county = rng.choice(counties)
    counts = []
    for geoid in geoids:
        busy = not geoid.startswith(zero_county) and rng.random() < 0.6
        counts.append(TractCount(geoid, rng.randrange(5) * busy, rng.randrange(5) * busy))
    rng.shuffle(counts)
    demo_geoids = [geoid for geoid in dict.fromkeys(geoids) if rng.random() < 0.85]
    demo_geoids += [f"{rng.choice(counties)}{rng.randrange(100, 140):06d}" for _ in range(3)]
    demo_geoids = list(dict.fromkeys(demo_geoids))
    rng.shuffle(demo_geoids)
    return counts, [random_demographics(rng, geoid) for geoid in demo_geoids]


def demographics_csv(rows):
    lines = [",".join(DEMOGRAPHICS_COLUMNS)]
    for row in rows:
        lines.append(",".join([row.tract_geoid, *(repr(getattr(row, n)) for n in PREDICTOR_NAMES)]))
    return "\n".join(lines) + "\n"


def outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def assert_same_path(counts, demo_rows):
    """The reference and the table path, stage by stage, on these inputs."""
    text = demographics_csv(demo_rows)
    ref_demo = ref_read_demographics_csv(text)
    demo = read_demographics_csv(io.StringIO(text))
    assert repr(list(demo)) == repr(ref_demo) == repr(demo_rows)

    ref_retained = ref_filter_zero_counties(counts)
    retained = filter_zero_counties(tract_table_of(counts))
    assert repr(list(retained)) == repr(ref_retained)

    ref_joined = outcome(ref_join_demographics, ref_retained, ref_demo)
    joined = outcome(join_demographics, retained, demo)
    if not isinstance(ref_joined[0], list):
        assert joined == ref_joined
        return
    (joined, diagnostics), (ref_joined, ref_unmatched) = joined, ref_joined
    assert repr(list(joined)) == repr(ref_joined)
    assert diagnostics.unmatched == ref_unmatched

    ref_scaled = outcome(ref_scale_predictors, ref_joined)
    scaled = outcome(scale_predictors, joined)
    if not isinstance(ref_scaled[0], list):
        assert scaled == ref_scaled
        return
    (scaled, bounds), (ref_scaled, ref_bounds) = scaled, ref_scaled
    assert repr(list(scaled)) == repr(ref_scaled)
    assert repr(bounds) == repr(ref_bounds)

    ref_geoids, ref_response, ref_design = ref_build_model_frame(ref_scaled)
    frame = build_model_frame(scaled)
    assert frame.tract_geoids == ref_geoids
    assert frame.response.dtype == ref_response.dtype
    assert frame.response.tobytes() == ref_response.tobytes()
    assert frame.design.column_names == ref_design.column_names
    assert frame.design.values.tobytes() == ref_design.values.tobytes()


@pytest.mark.parametrize("seed", range(200))
def test_table_path_matches_record_path_on_random_tables(seed):
    assert_same_path(*random_tables(seed))


FIELDS = st.sampled_from([
    "53033000001", " 53033000002 ", "0.5", "0", "-0.0", "1", "1.0", "1.5", "-1", "nan", "inf",
    "1e400", "1_0", "x", "", "120.5", '"53033\n000003"', '"0.25"',
])


@settings(max_examples=300, deadline=None)
@given(
    header=st.permutations(DEMOGRAPHICS_COLUMNS),
    rows=st.lists(st.lists(FIELDS, max_size=7), max_size=6),
)
def test_reader_matches_record_reader_on_generated_files(header, rows):
    """Rows, errors and their text agree with the record reader's."""
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    expected = outcome(ref_read_demographics_csv, text)
    got = outcome(lambda text: list(read_demographics_csv(io.StringIO(text))), text)
    assert repr(got) == repr(expected)


def test_random_tables_reach_every_stage():
    """The seeds above cover a fit, a constant predictor, no joined tract,
    ties in the sort and zero counties, so each comparison is exercised."""
    seen = set()
    for seed in range(200):
        counts, demo_rows = random_tables(seed)
        retained = ref_filter_zero_counties(counts)
        seen.add("zero county" if len(retained) < len(counts) else "all active")
        joined, _ = ref_join_demographics(retained, demo_rows)
        if len({record.tract_geoid for record in joined}) < len(joined):
            seen.add("tie")
        result = outcome(ref_scale_predictors, joined)
        seen.add("scaled" if isinstance(result[0], list) else result[0].__name__)
    assert seen >= {"zero county", "all active", "tie", "scaled", "ScalingError"}, seen


def test_duplicate_demographics_geoid_raises_the_first_repeat():
    counts = [TractCount("10001000001", 1, 0), TractCount("10001000002", 0, 1)]
    demo_rows = [random_demographics(random.Random(geoid), geoid) for geoid in
                 ("10001000001", "10001000002", "10001000001", "10001000002")]
    expected = (SchemaError, "duplicate tract_geoid in demographics: 10001000001")
    assert outcome(ref_join_demographics, counts, demo_rows) == expected
    assert outcome(join_demographics, tract_table_of(counts), tract_table_of(demo_rows)) == expected
    assert_same_path(counts, demo_rows)


def test_constant_predictor_names_it():
    rows = [DemographicsRow(f"1000100000{t}", 0.1 * t, 0.5, 0.1 * t, float(t), float(t))
            for t in range(1, 4)]
    records = [TractRecord(row.tract_geoid, "10001", 1, 0, row) for row in rows]
    expected = (ScalingError, "predictor pct_poverty is constant (0.5) over the retained tracts")
    assert outcome(ref_scale_predictors, records) == expected
    assert outcome(scale_predictors, tract_table_of(records)) == expected


def test_missing_rows_on_either_side():
    counts = [TractCount("10001000003", 2, 0), TractCount("10001000001", 0, 1),
              TractCount("10001000002", 1, 1)]
    demo_rows = [DemographicsRow("10001000001", 0.0, 0.0, 0.0, 0.0, 0.0),
                 DemographicsRow("10001000009", 0.5, 0.5, 0.5, 5.0, 5.0),
                 DemographicsRow("10001000003", 1.0, 1.0, 1.0, 10.0, 10.0)]
    joined, diagnostics = join_demographics(tract_table_of(counts), tract_table_of(demo_rows))
    assert [record.tract_geoid for record in joined] == ["10001000003", "10001000001"]
    assert diagnostics.unmatched == 1
    assert_same_path(counts, demo_rows)


def test_whole_zero_counties_are_dropped():
    counts = [TractCount("20003000001", 0, 0), TractCount("10001000001", 0, 0),
              TractCount("10001000002", 0, 3), TractCount("20003000002", 0, 0)]
    assert [count.tract_geoid for count in filter_zero_counties(tract_table_of(counts))] == [
        "10001000001", "10001000002"]
    assert list(filter_zero_counties(tract_table_of(counts[:1] + counts[3:]))) == []
    assert_same_path(counts, [random_demographics(random.Random(t), c.tract_geoid)
                              for t, c in enumerate(counts)])


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zeros_keep_the_first_bound_in_record_order(first, second):
    """0.0 and -0.0 are equal, so the bound is whichever comes first, as
    Python's min gives it; its repr reaches the run manifest, and the scaled
    values and design carry the sign that follows from it."""
    values = [0.5, first, 0.75, second]
    counts = [TractCount(f"1000100000{t}", t, 1) for t in range(len(values))]
    demo_rows = [
        DemographicsRow(count.tract_geoid, value, 0.1 * t, 0.2 * t, value * 10, float(t))
        for t, (count, value) in enumerate(zip(counts, values))
    ]
    _, bounds = scale_predictors(
        join_demographics(tract_table_of(counts), tract_table_of(demo_rows))[0]
    )
    assert repr(bounds["pct_college"][0]) == repr(first)
    assert repr(bounds["pop_density"][0]) == repr(first)
    assert_same_path(counts, demo_rows)


def test_input_records_in_non_geoid_order():
    geoids = ["10001000005", "10001000001", "10001000004", "10001000001", "10001000002"]
    rng = random.Random(4)
    records = [TractRecord(geoid, "10001", t, 5 - t, random_demographics(rng, geoid))
               for t, geoid in enumerate(geoids)]
    frame = build_model_frame(tract_table_of(records))
    ref_geoids, ref_response, ref_design = ref_build_model_frame(records)
    assert frame.tract_geoids == ref_geoids
    assert frame.response.tobytes() == ref_response.tobytes()
    assert frame.design.values.tobytes() == ref_design.values.tobytes()
    # The tied tract's rows keep their input order: docked counts 1, then 3.
    assert list(frame.response[:4]) == [4, 1, 2, 3]


def test_table_is_a_sequence_of_records_built_on_access():
    counts = [TractCount("10001000002", 3, 1), TractCount("10001000001", 0, 2)]
    rows = [DemographicsRow("10001000001", 0.5, 0.2, 0.3, 120.5, 77.0)]
    table = tract_table_of(counts)
    assert isinstance(table, TractTable)
    assert len(table) == 2 and table[-1] == counts[1] and list(table) == counts
    assert table.counts.shape == (2, 2) and table.predictors is None
    with pytest.raises(IndexError):
        table[2]
    joined, _ = join_demographics(table, tract_table_of(rows))
    assert list(joined) == [TractRecord("10001000001", "10001", 0, 2, rows[0])]
    assert joined.predictors.dtype == np.float64 and joined.predictors.shape == (1, 5)
    assert list(tract_table_of(rows)) == rows
    assert list(tract_table_of(iter(list(joined)))) == list(joined)
    empty = tract_table_of([])
    assert len(empty) == 0 and list(filter_zero_counties(empty)) == []
    with pytest.raises(EmptyFrameError):
        build_model_frame(empty)
    with pytest.raises(ScalingError, match="no records to scale"):
        scale_predictors(empty)
