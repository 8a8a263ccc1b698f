import hashlib

import numpy as np
import pytest

from bikeshare_equity.errors import SnapshotNotFoundError, StorageError
from bikeshare_equity.gbfs_client import DockingType
from bikeshare_equity.snapshot_store import append_snapshot, load_snapshot
from helpers import observation


def sample_observations(n=5, observed_at=1000):
    return [
        observation("sys", f"e{i}", 40.0 + i, -100.0 - i, DockingType.FREE, observed_at)
        for i in range(n)
    ]


def test_append_first_snapshot(tmp_path):
    receipt = append_snapshot(sample_observations(5), tmp_path)
    assert receipt.snapshot_id == 1
    assert receipt.row_count == 5
    assert receipt.systems == ("sys",)
    assert receipt.observed_at == 1000


def test_append_empty_snapshot_creates_file(tmp_path):
    receipt = append_snapshot([], tmp_path, clock=lambda: 77)
    assert receipt.row_count == 0
    assert receipt.observed_at == 77
    assert (tmp_path / "snapshot_000001.csv").exists()
    assert load_snapshot(tmp_path, 1) == []


def test_snapshot_ids_monotonic(tmp_path):
    first = append_snapshot(sample_observations(2), tmp_path)
    second = append_snapshot(sample_observations(3), tmp_path)
    assert (first.snapshot_id, second.snapshot_id) == (1, 2)


def test_load_latest(tmp_path):
    append_snapshot(sample_observations(2, observed_at=100), tmp_path)
    newer = sample_observations(3, observed_at=200)
    append_snapshot(newer, tmp_path)
    assert load_snapshot(tmp_path, "latest") == newer


def test_load_by_id(tmp_path):
    older = sample_observations(2, observed_at=100)
    append_snapshot(older, tmp_path)
    append_snapshot(sample_observations(3, observed_at=200), tmp_path)
    assert load_snapshot(tmp_path, 1) == older


def test_load_missing_id(tmp_path):
    append_snapshot(sample_observations(1), tmp_path)
    append_snapshot(sample_observations(1), tmp_path)
    with pytest.raises(SnapshotNotFoundError):
        load_snapshot(tmp_path, 7)


def test_load_empty_store(tmp_path):
    with pytest.raises(SnapshotNotFoundError):
        load_snapshot(tmp_path, "latest")


def test_range_dedup_keeps_latest(tmp_path):
    early = observation("sys", "bike", 40.0, -100.0, DockingType.FREE, 100)
    late = observation("sys", "bike", 41.0, -101.0, DockingType.FREE, 200)
    other = observation("sys", "other", 42.0, -102.0, DockingType.FREE, 100)
    append_snapshot([early, other], tmp_path)
    append_snapshot([late], tmp_path)
    loaded = load_snapshot(tmp_path, (0, 300))
    by_id = {obs.entity_id: obs for obs in loaded}
    assert len(loaded) == 2
    assert by_id["bike"] == late
    assert by_id["other"] == other


def test_range_dedup_distinguishes_docking_type(tmp_path):
    docked = observation("sys", "x", 40.0, -100.0, DockingType.DOCKED, 100)
    free = observation("sys", "x", 40.0, -100.0, DockingType.FREE, 100)
    append_snapshot([docked], tmp_path)
    append_snapshot([free], tmp_path)
    assert len(load_snapshot(tmp_path, (0, 300))) == 2


def test_range_with_no_match(tmp_path):
    append_snapshot(sample_observations(1, observed_at=100), tmp_path)
    with pytest.raises(SnapshotNotFoundError):
        load_snapshot(tmp_path, (500, 600))


def test_bad_selector(tmp_path):
    append_snapshot(sample_observations(1), tmp_path)
    with pytest.raises(ValueError):
        load_snapshot(tmp_path, "yesterday")


def test_round_trip(tmp_path):
    rows = sample_observations(9, observed_at=123)
    receipt = append_snapshot(rows, tmp_path)
    assert sorted(load_snapshot(tmp_path, receipt.snapshot_id), key=str) == sorted(
        rows, key=str
    )


def test_numpy_float_coordinates_round_trip(tmp_path):
    as_numpy = [
        observation("sys", f"e{i}", np.float64(45.01 + i), np.float64(-122.6 - i))
        for i in range(3)
    ]
    as_python = [
        observation(obs.system_id, obs.entity_id, float(obs.lat), float(obs.lon))
        for obs in as_numpy
    ]
    receipt = append_snapshot(as_numpy, tmp_path / "numpy")
    append_snapshot(as_python, tmp_path / "python")
    loaded = load_snapshot(tmp_path / "numpy", receipt.snapshot_id)
    assert loaded == as_python
    assert all(type(obs.lat) is float and type(obs.lon) is float for obs in loaded)
    name = "snapshot_000001.csv"
    assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "python" / name).read_bytes()


def test_append_never_mutates_existing_files(tmp_path):
    append_snapshot(sample_observations(4), tmp_path)
    first_file = tmp_path / "snapshot_000001.csv"
    checksum = hashlib.sha256(first_file.read_bytes()).hexdigest()
    for _ in range(3):
        append_snapshot(sample_observations(2), tmp_path)
    assert hashlib.sha256(first_file.read_bytes()).hexdigest() == checksum


def test_unwritable_store_path(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("plain file")
    with pytest.raises(StorageError):
        append_snapshot(sample_observations(1), blocker)
    assert not (tmp_path / "not_a_dir.tmp").exists()


def test_random_round_trip_and_dedup_property():
    import random
    from pathlib import Path
    import tempfile

    for seed in range(8):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp)
            expected: dict[tuple, object] = {}
            for snapshot_index in range(rng.randint(1, 4)):
                # Keys are unique within a snapshot, as harvest guarantees.
                per_key = {}
                for _ in range(rng.randint(0, 12)):
                    key = (
                        f"sys{rng.randint(0, 2)}",
                        f"e{rng.randint(0, 5)}",
                        rng.choice([DockingType.DOCKED, DockingType.FREE]),
                    )
                    per_key[key] = observation(
                        key[0],
                        key[1],
                        rng.uniform(-80, 80),
                        rng.uniform(-170, 170),
                        key[2],
                        observed_at=rng.randint(0, 1000),
                    )
                rows = list(per_key.values())
                append_snapshot(rows, store)
                # Mirror the store's rule: newest observed_at wins, later writes break ties.
                for obs in rows:
                    key = (obs.system_id, obs.entity_id, obs.docking_type)
                    prev = expected.get(key)
                    if prev is None or obs.observed_at >= prev.observed_at:
                        expected[key] = obs
            loaded = load_snapshot(store, (0, 1000))
            assert len(loaded) == len(expected)
            for obs in loaded:
                key = (obs.system_id, obs.entity_id, obs.docking_type)
                assert expected[key].observed_at == obs.observed_at
