"""snapshot_store.Observations: the columns every snapshot read returns,
iterated as BikeObservations built one by one.

The record views stay for callers that read rows one by one: the benchmark's
checks (``perfbench/checks.py``) iterate a loaded snapshot and a
``count_by_tract`` table and read record attributes. The last test reads
exactly those attributes, so a change that removes the views fails here
before it breaks the benchmark.
"""

from bikeshare_equity.geo import load_boundaries
from bikeshare_equity.join_aggregate import count_by_tract
from bikeshare_equity.snapshot_store import (
    BikeObservation,
    DockingType,
    append_snapshot,
    load_snapshot,
)
from helpers import (
    five_tract_features,
    observation,
    observations_of,
    write_feature_collection,
)

DOCKED, FREE = DockingType.DOCKED, DockingType.FREE
RECORDS = [
    observation("a", "e0", 45.0, -122.0, FREE, 100),
    observation("a", "e1", 45.5, -122.5, FREE, 100),
    observation("b", "e2", 46.0, -123.0, DOCKED, 100),
    observation("a", "e3", 46.5, -123.5, DOCKED, 200),
]


def test_from_records_round_trips_through_runs():
    observations = observations_of(RECORDS)
    assert list(observations) == RECORDS
    assert all(type(record) is BikeObservation for record in observations)
    assert observations.system_id_runs == [["a", 2], ["b", 1], ["a", 1]]
    assert observations.docking_type_runs == [[FREE, 2], [DOCKED, 2]]
    assert observations.observed_at_runs == [[100, 3], [200, 1]]
    assert list(observations.entity_ids) == ["e0", "e1", "e2", "e3"]
    assert list(observations.lats) == [45.0, 45.5, 46.0, 46.5]
    assert list(observations.lons) == [-122.0, -122.5, -123.0, -123.5]
    # Iterating again builds the same records again.
    assert list(observations) == RECORDS


def test_len_bool_and_iteration():
    observations = observations_of(RECORDS)
    assert len(observations) == 4 and observations
    assert list(observations) == RECORDS
    # `in` rests on iteration.
    assert RECORDS[3] in observations
    assert RECORDS[3]._replace(entity_id="e9") not in observations


def test_no_observations():
    empty = observations_of([])
    assert len(empty) == 0 and not empty and list(empty) == []
    assert empty.system_id_runs == empty.docking_type_runs == empty.observed_at_runs == []


def test_the_records_the_benchmark_reads(tmp_path):
    """Iterate a loaded snapshot and a count_by_tract table, reading each
    record's attributes as the benchmark's check_snapshot_rows and
    check_counts do."""
    append_snapshot(observations_of(RECORDS[:1] + [
        observation("a", "in", 0.5, 0.5, DOCKED), observation("b", "out", 0.5, 1.5, FREE),
    ]), tmp_path / "store")
    observations = load_snapshot(tmp_path / "store", cache_dir=tmp_path / "cache")
    assert [
        (o.system_id, o.entity_id, o.docking_type.value, o.lon, o.lat) for o in observations
    ] == [("a", "e0", "free", -122.0, 45.0), ("a", "in", "docked", 0.5, 0.5),
          ("b", "out", "free", 1.5, 0.5)]
    index = load_boundaries(
        write_feature_collection(tmp_path / "five.geojson", five_tract_features())
    )
    counts, diagnostics = count_by_tract(observations, index)
    assert {c.tract_geoid: [c.count_docked, c.count_free] for c in counts} == {
        "53033000100": [1, 0], "53033000101": [0, 0], "53033000102": [0, 0],
        "53033000103": [0, 0], "53033000200": [0, 0],
    }
    assert diagnostics.unassigned == 2
