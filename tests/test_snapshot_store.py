import hashlib

import numpy as np
import pytest

from bikeshare_equity.errors import SnapshotNotFoundError, StorageError
from bikeshare_equity.snapshot_store import DockingType, append_snapshot, load_snapshot
from helpers import observation, observations_of


def sample_observations(n=5, observed_at=1000):
    return [
        observation("sys", f"e{i}", 40.0 + i, -100.0 - i, DockingType.FREE, observed_at)
        for i in range(n)
    ]


def test_append_first_snapshot(tmp_path):
    rows = sample_observations(5)
    rows[1] = rows[1]._replace(observed_at=1002)  # the newest, though not the last
    receipt = append_snapshot(observations_of(rows), tmp_path, clock=lambda: 7)
    assert receipt.snapshot_id == 1
    assert receipt.row_count == 5
    assert receipt.systems == ("sys",)
    assert receipt.observed_at == 1002
    assert (tmp_path / "manifest.csv").read_text() == "1,1002,5,snapshot_000001.csv\n"
    assert list(load_snapshot(tmp_path, 1)) == rows


def test_append_empty_snapshot_creates_file(tmp_path):
    receipt = append_snapshot(observations_of([]), tmp_path, clock=lambda: 77)
    assert receipt.row_count == 0
    assert receipt.observed_at == 77
    assert (tmp_path / "snapshot_000001.csv").exists()
    assert list(load_snapshot(tmp_path, 1)) == []


def test_snapshot_ids_monotonic(tmp_path):
    first = append_snapshot(observations_of(sample_observations(2)), tmp_path)
    second = append_snapshot(observations_of(sample_observations(3)), tmp_path)
    assert (first.snapshot_id, second.snapshot_id) == (1, 2)


def test_load_latest(tmp_path):
    append_snapshot(observations_of(sample_observations(2, observed_at=100)), tmp_path)
    newer = sample_observations(3, observed_at=200)
    append_snapshot(observations_of(newer), tmp_path)
    assert list(load_snapshot(tmp_path, "latest")) == newer


def test_load_by_id(tmp_path):
    older = sample_observations(2, observed_at=100)
    append_snapshot(observations_of(older), tmp_path)
    append_snapshot(observations_of(sample_observations(3, observed_at=200)), tmp_path)
    assert list(load_snapshot(tmp_path, 1)) == older


def test_load_missing_id(tmp_path):
    append_snapshot(observations_of(sample_observations(1)), tmp_path)
    append_snapshot(observations_of(sample_observations(1)), tmp_path)
    with pytest.raises(SnapshotNotFoundError):
        load_snapshot(tmp_path, 7)


def test_load_empty_store(tmp_path):
    with pytest.raises(SnapshotNotFoundError):
        load_snapshot(tmp_path, "latest")


def test_range_dedup_keeps_latest(tmp_path):
    early = observation("sys", "bike", 40.0, -100.0, DockingType.FREE, 100)
    late = observation("sys", "bike", 41.0, -101.0, DockingType.FREE, 200)
    other = observation("sys", "other", 42.0, -102.0, DockingType.FREE, 100)
    append_snapshot(observations_of([early, other]), tmp_path)
    append_snapshot(observations_of([late]), tmp_path)
    loaded = load_snapshot(tmp_path, (0, 300))
    by_id = {obs.entity_id: obs for obs in loaded}
    assert len(loaded) == 2
    assert by_id["bike"] == late
    assert by_id["other"] == other


def test_range_dedup_distinguishes_docking_type(tmp_path):
    docked = observation("sys", "x", 40.0, -100.0, DockingType.DOCKED, 100)
    free = observation("sys", "x", 40.0, -100.0, DockingType.FREE, 100)
    append_snapshot(observations_of([docked]), tmp_path)
    append_snapshot(observations_of([free]), tmp_path)
    assert len(load_snapshot(tmp_path, (0, 300))) == 2


def test_range_with_no_match(tmp_path):
    append_snapshot(observations_of(sample_observations(1, observed_at=100)), tmp_path)
    with pytest.raises(SnapshotNotFoundError):
        load_snapshot(tmp_path, (500, 600))


def test_bad_selector(tmp_path):
    append_snapshot(observations_of(sample_observations(1)), tmp_path)
    with pytest.raises(ValueError):
        load_snapshot(tmp_path, "yesterday")


def test_round_trip(tmp_path):
    rows = sample_observations(9, observed_at=123)
    receipt = append_snapshot(observations_of(rows), tmp_path)
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
    receipt = append_snapshot(observations_of(as_numpy), tmp_path / "numpy")
    append_snapshot(observations_of(as_python), tmp_path / "python")
    loaded = load_snapshot(tmp_path / "numpy", receipt.snapshot_id)
    assert list(loaded) == as_python
    assert all(type(obs.lat) is float and type(obs.lon) is float for obs in loaded)
    name = "snapshot_000001.csv"
    assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "python" / name).read_bytes()


def test_append_never_mutates_existing_files(tmp_path):
    append_snapshot(observations_of(sample_observations(4)), tmp_path)
    first_file = tmp_path / "snapshot_000001.csv"
    checksum = hashlib.sha256(first_file.read_bytes()).hexdigest()
    for _ in range(3):
        append_snapshot(observations_of(sample_observations(2)), tmp_path)
    assert hashlib.sha256(first_file.read_bytes()).hexdigest() == checksum


def test_unwritable_store_path(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("plain file")
    with pytest.raises(StorageError):
        append_snapshot(observations_of(sample_observations(1)), blocker)
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
                append_snapshot(observations_of(rows), store)
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


def ref_newest_per_key(snapshots):
    """The range selector's dedupe as it was on records: a dict from each
    (system_id, entity_id, docking_type) to its newest record, the later
    record winning a tie."""
    deduped = {}
    for records in snapshots:
        for obs in records:
            key = (obs.system_id, obs.entity_id, obs.docking_type)
            previous = deduped.get(key)
            if previous is None or obs.observed_at >= previous.observed_at:
                deduped[key] = obs
    return list(deduped.values())


def row(entity_id, observed_at, lat, system_id="sys", kind=DockingType.FREE):
    return observation(system_id, entity_id, lat, -100.0 - lat / 10, kind, observed_at)


def random_snapshots(seed):
    import random

    rng = random.Random(seed)
    return [
        [
            row(f"e{rng.randint(0, 4)}", rng.randint(0, 3), rng.uniform(-80, 80),
                f"sys{rng.randint(0, 1)}", rng.choice(list(DockingType)))
            for _ in range(rng.randint(0, 10))
        ]
        for _ in range(rng.randint(2, 4))
    ]


DEDUPE_CASES = {
    "key repeated inside one snapshot": [
        [row("x", 100, 1.0), row("y", 100, 2.0), row("x", 150, 3.0), row("x", 120, 4.0)],
        [row("y", 90, 5.0)],
    ],
    "observed_at tie inside one snapshot": [
        [row("x", 100, 1.0), row("x", 100, 2.0)], [row("z", 50, 3.0)],
    ],
    "observed_at tie across snapshots": [[row("x", 100, 1.0)], [row("x", 100, 2.0)]],
    "newest row in an earlier snapshot": [
        [row("x", 300, 1.0), row("y", 100, 2.0)], [row("x", 200, 3.0), row("y", 200, 4.0)],
    ],
    "order of first appearance": [
        [row("b", 1, 1.0), row("a", 1, 2.0)],
        [row("c", 2, 3.0), row("a", 2, 4.0), row("b", 0, 5.0)],
        [row("d", 3, 6.0, "other"), row("c", 3, 7.0, kind=DockingType.DOCKED)],
    ],
    "every snapshot empty": [[], []],
    **{f"random {seed}": random_snapshots(seed) for seed in range(6)},
}


@pytest.mark.parametrize("snapshots", DEDUPE_CASES.values(), ids=DEDUPE_CASES.keys())
def test_range_dedupe_matches_record_reference(tmp_path, snapshots):
    store = tmp_path / "store"
    for t, records in enumerate(snapshots):
        append_snapshot(observations_of(records), store, clock=lambda: t)
    expected = ref_newest_per_key(snapshots)
    selector = (0, 10_000)
    # Uncached, then a cache miss, then a hit.
    for cache_dir in (None, store / "cache", store / "cache"):
        loaded = load_snapshot(store, selector, cache_dir=cache_dir)
        assert list(loaded) == expected
        assert [tuple(map(type, obs)) for obs in loaded] == [
            tuple(map(type, obs)) for obs in expected
        ]


def test_append_skips_an_orphan_snapshot_file(tmp_path):
    """A crash between writing a snapshot file and its manifest line leaves a
    file the manifest does not name; the next append takes the next id and
    leaves the orphan's bytes alone."""
    append_snapshot(observations_of(sample_observations(2)), tmp_path)
    orphan = tmp_path / "snapshot_000002.csv"
    orphan.write_text("orphaned bytes\n")
    receipt = append_snapshot(observations_of(sample_observations(3)), tmp_path)
    assert receipt.snapshot_id == 3
    assert orphan.read_text() == "orphaned bytes\n"
    assert list(load_snapshot(tmp_path, 3)) == sample_observations(3)
    with pytest.raises(SnapshotNotFoundError):
        load_snapshot(tmp_path, 2)


def test_append_with_a_stale_manifest_view_takes_the_next_free_id(tmp_path, monkeypatch):
    """Two writers that read the manifest before either appended pick the same
    candidate id; the second to link its file moves on to the next id."""
    from bikeshare_equity import snapshot_store

    first = append_snapshot(observations_of(sample_observations(2)), tmp_path)
    monkeypatch.setattr(snapshot_store, "_read_manifest", lambda store: [])
    second = append_snapshot(observations_of(sample_observations(4)), tmp_path)
    monkeypatch.undo()
    assert (first.snapshot_id, second.snapshot_id) == (1, 2)
    assert list(load_snapshot(tmp_path, 1)) == sample_observations(2)
    assert list(load_snapshot(tmp_path, 2)) == sample_observations(4)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.csv", "snapshot_000001.csv", "snapshot_000002.csv"
    ]


def test_failed_write_leaves_no_temporary_file(tmp_path):
    # Each fails after the file is opened: an id that is not a str, a
    # docking_type the writer has no text for, and an id that UTF-8 cannot
    # encode, which is a StorageError.
    not_a_str = sample_observations(2) + [observation("sys", 7, 40.0, -100.0)]
    with pytest.raises(TypeError):
        append_snapshot(observations_of(not_a_str), tmp_path)
    assert list(tmp_path.iterdir()) == []
    unknown_kind = sample_observations(2) + [observation("sys", "x", 40.0, -100.0, None)]
    with pytest.raises(KeyError):
        append_snapshot(observations_of(unknown_kind), tmp_path)
    assert list(tmp_path.iterdir()) == []
    surrogate = sample_observations(2) + [observation("sys", "\ud800", 40.0, -100.0)]
    with pytest.raises(StorageError, match="cannot write snapshot"):
        append_snapshot(observations_of(surrogate), tmp_path)
    assert list(tmp_path.iterdir()) == []


CONCURRENT_WRITER = """
import sys, time
from pathlib import Path
from bikeshare_equity.snapshot_store import DockingType, Observations, append_snapshot

store, writer = Path(sys.argv[1]), sys.argv[2]
while not (store / "go").exists():
    time.sleep(0.001)
for n in range(15):
    rows = Observations.from_columns(
        [writer] * 40, [f"e{n}_{i}" for i in range(40)], [45.0 + i / 1000 for i in range(40)],
        [-122.0] * 40, [DockingType.FREE] * 40, [1000 + n] * 40,
    )
    print(append_snapshot(rows, store).snapshot_id, n)
"""


def test_concurrent_appends_get_unique_ids_and_every_row_loads(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bikeshare_equity

    store = tmp_path / "store"
    store.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(bikeshare_equity.__file__).parents[1]))
    writers = [f"w{k}" for k in range(4)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", CONCURRENT_WRITER, str(store), writer],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for writer in writers
    ]
    (store / "go").touch()
    claimed = {}
    for writer, proc in zip(writers, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        for line in out.split("\n"):
            if line:
                snapshot_id, n = map(int, line.split())
                claimed[snapshot_id] = (writer, n)
    assert sorted(claimed) == list(range(1, 61))
    manifest = (store / "manifest.csv").read_text().splitlines()
    assert sorted(int(line.split(",")[0]) for line in manifest) == list(range(1, 61))
    for snapshot_id, (writer, n) in claimed.items():
        loaded = load_snapshot(store, snapshot_id)
        assert [(o.system_id, o.entity_id) for o in loaded] == [
            (writer, f"e{n}_{i}") for i in range(40)
        ]
    assert not [p for p in store.iterdir() if p.suffix == ".tmp"]
