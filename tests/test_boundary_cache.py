"""The compiled-boundary cache: a cached index equals a fresh parse array by
array, and no cache file (bad, foreign, unwritable or missing) changes what
load_boundaries or analyze return."""

import json
import os
import shutil

import numpy as np
import pytest

from bikeshare_equity import geo
from bikeshare_equity.cli import main
from bikeshare_equity.geo import assign_tracts, load_boundaries
from helpers import build_synthetic_city, write_feature_collection
from test_cli import analyze_argv
from test_geo import SHAPE_SETS, assert_batch_matches_scan, boundary_probes, densify

OUTPUTS = ("table1.csv", "table2.csv", "run_manifest.json")


def assert_same_index(cached, fresh):
    # The cached arrays, and those derived from them.
    got_tables, *got_rings = cached._ring_tables
    want_tables, *want_rings = fresh._ring_tables
    arrays = [(name, getattr(cached, "_" + name), getattr(fresh, "_" + name))
              for name in geo._ARRAY_NAMES]
    arrays += zip(("ring_table", "ring_row"), got_rings, want_rings)
    for got, want in zip(got_tables, want_tables, strict=True):
        arrays += zip(("ring_table_x", "ring_table_y"), got, want)
    for name, got, want in arrays:
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert cached.cell_size == fresh.cell_size
    assert cached.geoids() == fresh.geoids()
    assert len(cached.polygons) == len(fresh.polygons)
    for got, want in zip(cached.polygons, fresh.polygons):
        assert (got.tract_geoid, got.county_geoid, got.bbox) == (
            want.tract_geoid, want.county_geoid, want.bbox
        )
        assert all(type(value) is float for value in vars(got.bbox).values())
        assert len(got.rings) == len(want.rings)
        for ring, expected in zip(got.rings, want.rings):
            assert ring.dtype == np.float64 and not ring.flags.writeable
            assert np.array_equal(ring, expected)


def load_hit(path, cache_dir, monkeypatch, **kwargs):
    """load_boundaries from the cache, failing if it decodes the file."""
    with monkeypatch.context() as patch:
        patch.setattr(geo, "_parse_boundaries", pytest.fail)
        return load_boundaries(path, cache_dir=cache_dir, **kwargs)


@pytest.mark.parametrize("cell_size", [0.05, 5.0])
@pytest.mark.parametrize("shapes", sorted(SHAPE_SETS))
def test_cached_index_equals_fresh_parse(tmp_path, monkeypatch, shapes, cell_size):
    path = write_feature_collection(tmp_path / "tracts.geojson", SHAPE_SETS[shapes]())
    fresh = load_boundaries(path, cell_size)
    missed = load_boundaries(path, cell_size, cache_dir=tmp_path / "cache")
    assert_same_index(missed, fresh)
    cached = load_hit(path, tmp_path / "cache", monkeypatch, cell_size=cell_size)
    assert_same_index(cached, fresh)
    probes = boundary_probes(fresh)
    assert assert_batch_matches_scan(cached, probes) == assert_batch_matches_scan(fresh, probes)


def test_cached_index_equals_fresh_parse_on_dense_city(tmp_path, monkeypatch):
    city = build_synthetic_city(tmp_path / "city", n_cols=6, n_rows=5)
    features = json.loads(city["boundaries"].read_text())["features"]
    path = write_feature_collection(
        tmp_path / "dense.geojson", [densify(feature, 50) for feature in features]
    )
    load_boundaries(path, cache_dir=tmp_path / "cache")
    cached = load_hit(path, tmp_path / "cache", monkeypatch)
    fresh = load_boundaries(path)
    assert_same_index(cached, fresh)
    observations = city["observations"]
    lats, lons = [o.lat for o in observations], [o.lon for o in observations]
    assert assign_tracts(lats, lons, cached) == assign_tracts(lats, lons, fresh)


def test_cache_key_covers_content_and_cell_size(tmp_path, monkeypatch):
    path = write_feature_collection(tmp_path / "a.geojson", SHAPE_SETS["five_tracts"]())
    cache = tmp_path / "cache"
    load_boundaries(path, 0.05, cache_dir=cache)
    load_boundaries(path, 0.3, cache_dir=cache)
    assert len(list(cache.iterdir())) == 2
    # Same bytes under another name: a hit on the first file's entry.
    twin = tmp_path / "twin.geojson"
    twin.write_bytes(path.read_bytes())
    load_hit(twin, cache, monkeypatch)
    # One changed byte: a miss, and a third entry.
    path.write_text(path.read_text().replace("53033000100", "53033000109"))
    assert "53033000109" in load_boundaries(path, cache_dir=cache).geoids()
    assert len(list(cache.iterdir())) == 3


def test_library_default_writes_no_cache(tmp_path, monkeypatch):
    path = write_feature_collection(tmp_path / "tracts.geojson", SHAPE_SETS["holed"]())
    monkeypatch.setattr(geo, "_write_cache", pytest.fail)
    load_boundaries(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tracts.geojson"]


@pytest.fixture
def city(tmp_path):
    return build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)


def analyze(city, out_dir):
    assert main(analyze_argv(city, out_dir)) == 0
    return {name: (out_dir / name).read_bytes() for name in OUTPUTS}


def cache_files(city):
    """Every entry in the store's cache but the snapshot cache's finished
    files, so a temporary file of either cache is listed."""
    return sorted(
        path for path in (city["store"] / "cache").iterdir()
        if not path.name.startswith("snapshot-")
    )


def test_two_analyze_runs_on_one_store_are_byte_identical(tmp_path, city, monkeypatch):
    first = analyze(city, tmp_path / "first")  # a miss: writes the cache
    (cache_file,) = cache_files(city)
    with monkeypatch.context() as patch:
        patch.setattr(geo, "_parse_boundaries", pytest.fail)
        second = analyze(city, tmp_path / "second")  # a hit
    assert second == first
    cache_file.unlink()  # deleting the cache is always safe
    assert analyze(city, tmp_path / "third") == first


def rewrite_npz(path, name, change):
    """Rewrite a cache file with one array changed (to None: dropped)."""
    with np.load(path) as npz:
        arrays = {member: npz[member] for member in npz.files}
    arrays[name] = change(arrays[name])
    with open(path, "wb") as fh:
        np.savez(fh, **{member: a for member, a in arrays.items() if a is not None})


def flip_a_data_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


VERSION = f"-v{geo._CACHE_VERSION}-"

SPOILERS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "random bytes": lambda p: p.write_bytes(np.random.default_rng(0).bytes(p.stat().st_size)),
    "empty": lambda p: p.write_bytes(b""),
    "flipped data byte": flip_a_data_byte,
    "wrong key": lambda p: rewrite_npz(
        p, "key", lambda key: np.array(str(key).rsplit("-", 1)[0] + "-" + "0" * 64)
    ),
    "other version": lambda p: rewrite_npz(
        p, "key", lambda key: np.array(str(key).replace(VERSION, "-v0-"))
    ),
    "missing array": lambda p: rewrite_npz(p, "cell_polys", lambda a: None),
    "pickled array": lambda p: rewrite_npz(p, "rank", lambda a: np.array([object()] * len(a))),
    "wrong dtype": lambda p: rewrite_npz(p, "ring_offsets", lambda a: a.astype(np.int32)),
    "offset out of range": lambda p: rewrite_npz(
        p, "ring_offsets", lambda a: a + np.arange(len(a))
    ),
    "rank out of range": lambda p: rewrite_npz(p, "rank", lambda a: a + 1),
    "polygon out of range": lambda p: rewrite_npz(p, "cell_polys", lambda a: a + 1000),
    "a directory": lambda p: (p.unlink(), p.mkdir()),
}


@pytest.mark.parametrize("spoil", sorted(SPOILERS))
def test_bad_cache_file_is_a_silent_miss(tmp_path, city, monkeypatch, spoil):
    expected = analyze(city, tmp_path / "clean")
    (cache_file,) = cache_files(city)
    SPOILERS[spoil](cache_file)
    parses = []
    parse = geo._parse_boundaries
    monkeypatch.setattr(geo, "_parse_boundaries", lambda *a: parses.append(1) or parse(*a))
    assert analyze(city, tmp_path / "spoiled") == expected
    assert parses == [1]
    if spoil == "a directory":
        # Nothing replaces a directory, and no temporary file is left.
        assert cache_files(city) == [cache_file] and cache_file.is_dir()
        return
    # The miss rewrote the file, so the next run is a hit.
    assert cache_files(city) == [cache_file]
    assert analyze(city, tmp_path / "again") == expected
    assert parses == [1]


def test_old_version_file_is_never_read(tmp_path, city, monkeypatch):
    monkeypatch.setattr(geo, "_CACHE_VERSION", 0)
    expected = analyze(city, tmp_path / "v0")
    monkeypatch.undo()
    (old,) = cache_files(city)
    read = geo._read_cache

    def read_current(path, key):
        assert path != old, "read an old-version cache file"
        return read(path, key)

    monkeypatch.setattr(geo, "_read_cache", read_current)
    assert analyze(city, tmp_path / "v1") == expected
    assert len(cache_files(city)) == 2


def test_failed_boundary_load_writes_no_cache(tmp_path, city, capsys):
    doc = json.loads(city["boundaries"].read_text())
    doc["features"][3]["geometry"]["coordinates"][0][2][1] = None
    boundaries = tmp_path / "bad.geojson"
    boundaries.write_text(json.dumps(doc))
    assert main(analyze_argv(city, tmp_path / "out", boundaries)) == 1
    assert capsys.readouterr().err.startswith("error: stage load_boundaries: feature 3: ")
    assert cache_files(city) == []


def test_cache_path_that_is_a_file_is_left_alone(tmp_path, city):
    expected = analyze(city, tmp_path / "clean")
    shutil.rmtree(city["store"] / "cache")
    (city["store"] / "cache").write_bytes(b"not a directory")
    assert analyze(city, tmp_path / "out") == expected
    assert (city["store"] / "cache").read_bytes() == b"not a directory"


def test_read_only_cache_directory_is_not_written(tmp_path, city):
    cache = city["store"] / "cache"
    cache.mkdir()
    cache.chmod(0o555)
    try:
        if os.access(cache, os.W_OK):
            pytest.skip("this user writes to a read-only directory (the superuser does)")
        assert analyze(city, tmp_path / "out") == analyze(city, tmp_path / "again")
        assert list(cache.iterdir()) == []
    finally:
        cache.chmod(0o755)
