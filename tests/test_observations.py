"""snapshot_store.Observations: the columns every snapshot read returns, as a
sequence of BikeObservations built on demand."""

import pytest

from bikeshare_equity.snapshot_store import (
    BikeObservation,
    DockingType,
    Observations,
    as_observations,
)
from helpers import observation

DOCKED, FREE = DockingType.DOCKED, DockingType.FREE
RECORDS = [
    observation("a", "e0", 45.0, -122.0, FREE, 100),
    observation("a", "e1", 45.5, -122.5, FREE, 100),
    observation("b", "e2", 46.0, -123.0, DOCKED, 100),
    observation("a", "e3", 46.5, -123.5, DOCKED, 200),
]


def test_from_records_round_trips_through_runs():
    observations = Observations.from_records(RECORDS)
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


def test_len_bool_and_indexing():
    observations = Observations.from_records(RECORDS)
    assert len(observations) == 4 and observations
    for index in range(-4, 4):
        record = observations[index]
        assert record == RECORDS[index] and type(record) is BikeObservation
    for index in (4, -5, 100):
        with pytest.raises(IndexError):
            observations[index]
    with pytest.raises(TypeError):
        observations["0"]
    # The sequence methods that rest on indexing and iteration.
    assert observations.index(RECORDS[2]) == 2
    assert RECORDS[3] in observations
    assert list(reversed(observations)) == RECORDS[::-1]


def test_no_observations():
    empty = Observations.from_records([])
    assert len(empty) == 0 and not empty and list(empty) == []
    assert empty.system_id_runs == empty.docking_type_runs == empty.observed_at_runs == []
    with pytest.raises(IndexError):
        empty[0]
    with pytest.raises(IndexError):
        empty[-1]


def test_as_observations_reads_any_iterable_of_records_once():
    observations = Observations.from_records(RECORDS)
    assert as_observations(observations) is observations
    assert list(as_observations(RECORDS)) == RECORDS
    assert list(as_observations(record for record in RECORDS)) == RECORDS
