import numpy as np
import pytest

from bikeshare_equity.errors import EmptyFrameError, ScalingError, SchemaError
from bikeshare_equity.snapshot_store import DockingType
from bikeshare_equity.geo import load_boundaries
from bikeshare_equity.join_aggregate import (
    DEMOGRAPHICS_COLUMNS,
    DESIGN_COLUMNS,
    PREDICTOR_NAMES,
    DemographicsRow,
    TractCount,
    TractRecord,
    build_model_frame,
    count_by_tract,
    filter_zero_counties,
    join_demographics,
    quantile,
    read_demographics_csv,
    scale_predictors,
    summarize_systems,
    write_model_frame_csv,
)
from helpers import (
    five_tract_features,
    observation,
    observations_of,
    quantile_oracle,
    tract_table_of,
    write_feature_collection,
)

import io


def demo_row(geoid, college=0.5, poverty=0.2, nonwhite=0.3, pop=100.0, job=50.0):
    return DemographicsRow(geoid, college, poverty, nonwhite, pop, job)


def record(geoid, docked, free, demographics=None):
    return TractRecord(
        tract_geoid=geoid,
        county_geoid=geoid[:5],
        count_docked=docked,
        count_free=free,
        demographics=demographics or demo_row(geoid),
    )


@pytest.fixture
def five_tract_index(tmp_path):
    path = write_feature_collection(tmp_path / "five.geojson", five_tract_features())
    return load_boundaries(path)


# ---------------------------------------------------------------------------
# count_by_tract
# ---------------------------------------------------------------------------

def test_count_by_tract_basic(five_tract_index):
    inside_a = [
        observation("sys", f"d{i}", lat=0.5, lon=0.4 + 0.05 * i, docking_type=DockingType.DOCKED)
        for i in range(3)
    ] + [
        observation("sys", f"f{i}", lat=0.3, lon=0.4 + 0.05 * i, docking_type=DockingType.FREE)
        for i in range(2)
    ]
    counts, diag = count_by_tract(observations_of(inside_a), five_tract_index)
    assert diag.unassigned == 0
    assert len(counts) == 5
    by_geoid = {c.tract_geoid: c for c in counts}
    assert (by_geoid["53033000100"].count_docked, by_geoid["53033000100"].count_free) == (3, 2)
    for geoid, count in by_geoid.items():
        if geoid != "53033000100":
            assert (count.count_docked, count.count_free) == (0, 0)


def test_count_by_tract_no_observations(five_tract_index):
    counts, diag = count_by_tract(observations_of([]), five_tract_index)
    assert len(counts) == 5
    assert all(c.count_docked == 0 and c.count_free == 0 for c in counts)
    assert diag.unassigned == 0


def test_count_by_tract_unassigned_tallied(five_tract_index):
    ocean = observation("sys", "lost", lat=0.5, lon=1.5)
    counts, diag = count_by_tract(observations_of([ocean]), five_tract_index)
    assert diag.unassigned == 1
    assert all(c.count_docked == 0 and c.count_free == 0 for c in counts)


def test_count_mass_conservation(five_tract_index):
    rng = np.random.default_rng(11)
    observations = [
        observation(
            "sys",
            f"e{i}",
            lat=float(rng.uniform(-1, 5)),
            lon=float(rng.uniform(-1, 9)),
            docking_type=DockingType.DOCKED if rng.random() < 0.5 else DockingType.FREE,
        )
        for i in range(250)
    ]
    counts, diag = count_by_tract(observations_of(observations), five_tract_index)
    total = sum(c.count_docked + c.count_free for c in counts)
    assert total + diag.unassigned == len(observations)


# ---------------------------------------------------------------------------
# filter_zero_counties
# ---------------------------------------------------------------------------

def test_filter_zero_counties_rule():
    rows = [
        TractCount("10001000001", 0, 0),
        TractCount("10001000002", 2, 1),
        TractCount("10003000001", 0, 0),
        TractCount("10003000002", 0, 0),
    ]
    kept = filter_zero_counties(tract_table_of(rows))
    assert [r.tract_geoid for r in kept] == ["10001000001", "10001000002"]


def test_filter_zero_counties_all_zero():
    rows = [TractCount("10001000001", 0, 0), TractCount("10003000001", 0, 0)]
    assert list(filter_zero_counties(tract_table_of(rows))) == []


def test_filter_zero_counties_single_active_tract():
    rows = [TractCount("10001000001", 1, 0)]
    assert list(filter_zero_counties(tract_table_of(rows))) == rows


def test_filter_zero_counties_idempotent_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows = [
            TractCount(
                f"{rng.integers(10, 13):02d}{rng.integers(1, 4):03d}{t:06d}",
                int(rng.integers(0, 3)) * int(rng.random() < 0.3),
                int(rng.integers(0, 3)) * int(rng.random() < 0.3),
            )
            for t in range(int(rng.integers(1, 30)))
        ]
        once = filter_zero_counties(tract_table_of(rows))
        twice = filter_zero_counties(once)
        assert list(once) == list(twice)
        active = {
            r.county_geoid for r in rows if r.count_docked + r.count_free > 0
        }
        assert [r for r in rows if r.county_geoid in active] == list(once)


# ---------------------------------------------------------------------------
# join_demographics
# ---------------------------------------------------------------------------

def test_join_inner_with_diagnostics():
    counts = [
        TractCount("10001000001", 1, 0),
        TractCount("10001000002", 0, 2),
        TractCount("10001000003", 3, 3),
    ]
    demo = [demo_row("10001000001"), demo_row("10001000003"), demo_row("10001000099")]
    records, diag = join_demographics(tract_table_of(counts), tract_table_of(demo))
    assert [r.tract_geoid for r in records] == ["10001000001", "10001000003"]
    assert diag.unmatched == 1
    assert records[0].county_geoid == "10001"


def test_join_perfect_match_no_diagnostics():
    counts = [TractCount("10001000001", 1, 0)]
    records, diag = join_demographics(
        tract_table_of(counts), tract_table_of([demo_row("10001000001")])
    )
    assert len(records) == 1 and diag.unmatched == 0


def test_join_duplicate_geoid_rejected():
    counts = [TractCount("10001000001", 1, 0)]
    demo = [demo_row("10001000001"), demo_row("10001000001")]
    with pytest.raises(SchemaError, match="10001000001"):
        join_demographics(tract_table_of(counts), tract_table_of(demo))


def test_join_order_invariant_with_filter():
    counts = [
        TractCount("10001000001", 0, 0),
        TractCount("10001000002", 2, 1),
        TractCount("10003000001", 0, 0),
    ]
    counts, demo = tract_table_of(counts), tract_table_of([demo_row(c.tract_geoid) for c in counts])
    filtered_first, _ = join_demographics(filter_zero_counties(counts), demo)
    joined_first, _ = join_demographics(counts, demo)
    assert list(filtered_first) == list(filter_zero_counties(joined_first))


# ---------------------------------------------------------------------------
# scale_predictors
# ---------------------------------------------------------------------------

def test_scale_min_max_basic():
    records = [
        record("10001000001", 1, 0, demo_row("10001000001", pop=100.0)),
        record("10001000002", 1, 0, demo_row("10001000002", pop=300.0)),
        record("10001000003", 1, 0, demo_row("10001000003", pop=500.0)),
    ]
    # Break constancy of the other four predictors.
    records[0] = record(
        "10001000001", 1, 0, DemographicsRow("10001000001", 0.0, 0.0, 0.0, 100.0, 0.0)
    )
    records[2] = record(
        "10001000003", 1, 0, DemographicsRow("10001000003", 1.0, 1.0, 1.0, 500.0, 100.0)
    )
    scaled, bounds = scale_predictors(tract_table_of(records))
    assert [r.demographics.pop_density for r in scaled] == [0.0, 0.5, 1.0]
    assert bounds["pop_density"] == (100.0, 500.0)


def test_scale_attains_zero_and_one_for_every_predictor():
    rng = np.random.default_rng(9)
    records = [
        record(
            f"10001{t:06d}",
            1,
            0,
            DemographicsRow(
                f"10001{t:06d}",
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 5000)),
                float(rng.uniform(0, 2000)),
            ),
        )
        for t in range(17)
    ]
    scaled, _ = scale_predictors(tract_table_of(records))
    for name in PREDICTOR_NAMES:
        values = [getattr(r.demographics, name) for r in scaled]
        assert min(values) == 0.0
        assert max(values) == 1.0
        assert all(0.0 <= v <= 1.0 for v in values)


def test_scale_identity_when_bounds_attained():
    records = [
        record("10001000001", 1, 0, DemographicsRow("10001000001", 0.0, 0.0, 0.0, 0.0, 0.0)),
        record("10001000002", 1, 0, DemographicsRow("10001000002", 0.25, 0.5, 0.75, 0.5, 0.125)),
        record("10001000003", 1, 0, DemographicsRow("10001000003", 1.0, 1.0, 1.0, 1.0, 1.0)),
    ]
    scaled, _ = scale_predictors(tract_table_of(records))
    assert scaled[1].demographics == records[1].demographics


def test_scale_constant_predictor_rejected():
    records = [
        record("10001000001", 1, 0, demo_row("10001000001", nonwhite=0.4)),
        record("10001000002", 1, 0, demo_row("10001000002", nonwhite=0.4)),
    ]
    with pytest.raises(ScalingError, match="pct_college"):
        scale_predictors(tract_table_of(records))


# ---------------------------------------------------------------------------
# build_model_frame
# ---------------------------------------------------------------------------

def test_model_frame_single_tract():
    rec = record(
        "10001000001",
        3,
        1,
        DemographicsRow("10001000001", 0.5, 0.0, 0.0, 0.0, 0.0),
    )
    frame = build_model_frame(tract_table_of([rec]))
    assert frame.design.column_names == DESIGN_COLUMNS
    assert frame.design.values.shape == (2, 12)
    free_row, docked_row = frame.design.values
    assert list(frame.response) == [1, 3]
    assert free_row[6] == 0.0 and docked_row[6] == 1.0
    college_interaction = list(DESIGN_COLUMNS).index("pct_college_x_docking_type")
    assert docked_row[college_interaction] == 0.5
    assert free_row[college_interaction] == 0.0


def test_model_frame_two_rows_per_tract():
    records = [record(f"10001{t:06d}", t, t + 1) for t in range(7)]
    frame = build_model_frame(tract_table_of(records))
    assert frame.design.values.shape == (14, 12)
    assert len(frame.tract_geoids) == 14


def test_model_frame_interactions_elementwise():
    rng = np.random.default_rng(13)
    records = [
        record(
            f"10001{t:06d}",
            int(rng.integers(0, 5)),
            int(rng.integers(0, 5)),
            DemographicsRow(
                f"10001{t:06d}",
                *[float(rng.uniform(0, 1)) for _ in range(3)],
                float(rng.uniform(0, 10)),
                float(rng.uniform(0, 10)),
            ),
        )
        for t in range(9)
    ]
    frame = build_model_frame(tract_table_of(records))
    values = frame.design.values
    indicator = values[:, 6]
    for k in range(5):
        np.testing.assert_allclose(values[:, 7 + k], values[:, 1 + k] * indicator)


def test_model_frame_all_zero_predictors():
    rec = record(
        "10001000001", 2, 2, DemographicsRow("10001000001", 0.0, 0.0, 0.0, 0.0, 0.0)
    )
    frame = build_model_frame(tract_table_of([rec]))
    assert (frame.design.values[:, 7:] == 0.0).all()


def test_model_frame_empty_rejected():
    with pytest.raises(EmptyFrameError):
        build_model_frame(tract_table_of([]))


def test_model_frame_csv_export():
    rec = record("10001000001", 3, 1)
    frame = build_model_frame(tract_table_of([rec]))
    buffer = io.StringIO()
    write_model_frame_csv(frame, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0].split(",") == [*DESIGN_COLUMNS, "tract_geoid", "response"]
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# summarize_systems
# ---------------------------------------------------------------------------

def make_fleet(counts_by_system, docking_type):
    observations = []
    for system_id, n in counts_by_system.items():
        for i in range(n):
            observations.append(
                observation(
                    system_id, f"{system_id}_{i}", 40.0, -100.0, docking_type
                )
            )
    return observations


def test_summarize_interpolated_median():
    observations = make_fleet(
        {"a": 2, "b": 35, "c": 400, "d": 8}, DockingType.FREE
    )
    summaries = summarize_systems(observations_of(observations))
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary.docking_type is DockingType.FREE
    assert summary.total_bikes == 445
    assert summary.n_systems == 4
    assert summary.q50 == 21.5
    assert summary.q25 == 6.5
    assert summary.q75 == 126.25


def test_summarize_single_system_degenerate_quantiles():
    observations = make_fleet({"solo": 7}, DockingType.DOCKED)
    summary = summarize_systems(observations_of(observations))[0]
    assert (summary.q25, summary.q50, summary.q75) == (7.0, 7.0, 7.0)


def test_summarize_orders_free_then_docked():
    observations = make_fleet({"d": 3}, DockingType.DOCKED) + make_fleet(
        {"f": 2}, DockingType.FREE
    )
    summaries = summarize_systems(observations_of(observations))
    assert [s.docking_type for s in summaries] == [DockingType.FREE, DockingType.DOCKED]


def test_summarize_requires_observations():
    with pytest.raises(ValueError):
        summarize_systems(observations_of([]))


def test_summarize_counts_systems_split_across_runs():
    """A system's rows need not be adjacent: its count adds up over every run
    of its system_id within a docking type."""
    rows = (
        make_fleet({"a": 2, "b": 3}, DockingType.FREE)
        + make_fleet({"a": 4}, DockingType.DOCKED)
        + make_fleet({"a": 1, "c": 2}, DockingType.FREE)
        + make_fleet({"b": 5, "a": 1}, DockingType.DOCKED)
    )
    free, docked = summarize_systems(observations_of(rows))
    # Free: a 2 + 1, b 3, c 2; docked: a 4 + 1, b 5.
    assert (free.total_bikes, free.n_systems, free.q25, free.q50) == (8, 3, 2.5, 3.0)
    assert (docked.total_bikes, docked.n_systems, docked.q25, docked.q75) == (10, 2, 5.0, 5.0)


def test_quantiles_match_oracles():
    rng = np.random.default_rng(21)
    for _ in range(20):
        values = [int(v) for v in rng.integers(0, 500, size=int(rng.integers(1, 40)))]
        for q in (0.25, 0.5, 0.75):
            ours = quantile(sorted(values), q)
            assert ours == pytest.approx(quantile_oracle(values, q), abs=1e-12)
            assert ours == pytest.approx(float(np.quantile(values, q)), abs=1e-9)


# ---------------------------------------------------------------------------
# demographics CSV
# ---------------------------------------------------------------------------

def test_read_demographics_csv(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(
        "tract_geoid,pct_college,pct_poverty,pct_nonwhite,pop_density,job_density\n"
        "10001000001,0.5,0.2,0.3,120.5,77.0\n"
    )
    rows = read_demographics_csv(path)
    assert list(rows) == [DemographicsRow("10001000001", 0.5, 0.2, 0.3, 120.5, 77.0)]


def test_read_demographics_missing_column(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text("tract_geoid,pct_college\n10001000001,0.5\n")
    with pytest.raises(SchemaError, match="pct_poverty"):
        read_demographics_csv(path)


def test_read_demographics_bad_fraction(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(
        "tract_geoid,pct_college,pct_poverty,pct_nonwhite,pop_density,job_density\n"
        "10001000001,1.5,0.2,0.3,120.5,77.0\n"
    )
    with pytest.raises(SchemaError, match="line 2"):
        read_demographics_csv(path)


def test_demographics_row_validation():
    header = ",".join(DEMOGRAPHICS_COLUMNS)
    for row in ("10001000001,-0.1,0.2,0.3,100.0,50.0", "10001000001,0.5,0.2,0.3,-5.0,50.0"):
        with pytest.raises(SchemaError, match="line 2"):
            read_demographics_csv(io.StringIO(f"{header}\n{row}\n"))
