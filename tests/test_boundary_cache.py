"""The boundary cache: a cached index equals a fresh parse array by array,
a hit builds nothing, and no cache file (bad, foreign, old, unwritable or
missing) changes what load_boundaries or analyze return."""

import json
import math
import os
import shutil
import sys
import zlib

import numpy as np
import pytest

from bikeshare_equity import content_cache, geo
from bikeshare_equity.cli import main
from bikeshare_equity.content_cache import content_key
from bikeshare_equity.geo import assign_tracts, load_boundaries
from helpers import (
    build_synthetic_city,
    city_inputs,
    entries_besides_memos,
    only_memos_of,
    square_feature,
    write_feature_collection,
)
from test_cli import analyze_argv
from test_geo import SHAPE_SETS, assert_batch_matches_scan, at_side, boundary_probes, densify

OUTPUTS = ("table1.csv", "table2.csv", "run_manifest.json")


def index_arrays(index):
    """(name, array) for every array the index holds or derives."""
    arrays = [(name, getattr(index, "_" + name)) for name in geo._PART_NAMES]
    return arrays + list(zip(("band_first", "band_ylo", "band_height"), index._band_grid))


def assert_same_index(cached, fresh):
    for (name, got), (_, want) in zip(index_arrays(cached), index_arrays(fresh), strict=True):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
        assert got.flags.aligned, name
    assert cached.geoids() == fresh.geoids()
    assert all(type(geoid) is str for geoid in cached.geoids())
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


BUILDERS = ("_parse_boundaries", "_edge_bands", "_tile_parts", "_answer_table", "_marked_sub_cells")


def load_hit(path, cache_dir, monkeypatch):
    """load_boundaries from the cache, failing if it decodes the file or
    builds any part of the index."""
    with monkeypatch.context() as patch:
        for name in BUILDERS:
            patch.setattr(geo, name, pytest.fail)
        return load_boundaries(path, cache_dir=cache_dir)


@pytest.mark.parametrize("side", [0.05, 5.0])
@pytest.mark.parametrize("shapes", sorted(SHAPE_SETS))
def test_cached_index_equals_fresh_parse(tmp_path, monkeypatch, shapes, side):
    at_side(monkeypatch, side)
    path = write_feature_collection(tmp_path / "tracts.geojson", SHAPE_SETS[shapes]())
    fresh = load_boundaries(path)
    missed = load_boundaries(path, cache_dir=tmp_path / "cache")
    assert_same_index(missed, fresh)
    cached = load_hit(path, tmp_path / "cache", monkeypatch)
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


def test_one_file_per_boundary_content(tmp_path, monkeypatch):
    path = write_feature_collection(tmp_path / "a.geojson", SHAPE_SETS["five_tracts"]())
    cache = tmp_path / "cache"
    missed = load_boundaries(path, cache_dir=cache)
    assert_same_index(missed, load_boundaries(path))
    assert_same_index(load_hit(path, cache, monkeypatch), missed)
    prefix = f"tract-index-v{geo._CACHE_VERSION}"
    first = content_key(prefix, path.read_bytes())
    assert entries_besides_memos(cache, path) == [first]
    # Same bytes under another name: a hit on the first file's entry.
    twin = tmp_path / "twin.geojson"
    twin.write_bytes(path.read_bytes())
    load_hit(twin, cache, monkeypatch)
    # One changed byte: a miss, and a second entry.
    path.write_text(path.read_text().replace("53033000100", "53033000109"))
    assert "53033000109" in load_boundaries(path, cache_dir=cache).geoids()
    assert entries_besides_memos(cache, path, twin) == sorted(
        [first, content_key(prefix, path.read_bytes())]
    )


def test_empty_boundary_file_is_a_hit(tmp_path, monkeypatch):
    path = write_feature_collection(tmp_path / "empty.geojson", [])
    missed = load_boundaries(path, cache_dir=tmp_path / "cache")
    cached = load_hit(path, tmp_path / "cache", monkeypatch)
    assert_same_index(cached, missed)
    assert assign_tracts([0.5, float("nan")], [0.5, 0.5], cached) == [None, None]


def test_miss_is_cached_under_the_key_of_the_bytes_parsed(tmp_path, monkeypatch):
    """A file edited after it was hashed (a miss) and before it was parsed
    is cached under its new bytes' key, never under the old bytes' key."""
    path = write_feature_collection(tmp_path / "a.geojson", SHAPE_SETS["five_tracts"]())
    hash_file = content_cache.file_content_key

    def hash_then_edit(prefix, file):
        key = hash_file(prefix, file)
        path.write_text(path.read_text().replace("53033000100", "53033000109"))
        return key

    monkeypatch.setattr(content_cache, "file_content_key", hash_then_edit)
    index = load_boundaries(path, cache_dir=tmp_path / "cache")
    monkeypatch.undo()
    assert "53033000109" in index.geoids()
    assert entries_besides_memos(tmp_path / "cache", path) == [
        content_key(f"tract-index-v{geo._CACHE_VERSION}", path.read_bytes())
    ]
    assert_same_index(load_hit(path, tmp_path / "cache", monkeypatch), index)


def test_hit_builds_no_polygons(tmp_path, monkeypatch):
    path = write_feature_collection(tmp_path / "a.geojson", SHAPE_SETS["holed_with_island"]())
    fresh = load_boundaries(path, cache_dir=tmp_path / "cache")
    lons, lats = zip(*boundary_probes(fresh))
    with monkeypatch.context() as patch:
        patch.setattr(geo, "TractPolygon", pytest.fail)
        patch.setattr(geo, "BoundingBox", pytest.fail)
        cached = load_hit(path, tmp_path / "cache", monkeypatch)
        assert "polygons" not in vars(cached)
        # The batch path builds none.
        assert assign_tracts(lats, lons, cached) == assign_tracts(lats, lons, fresh)
        assert "polygons" not in vars(cached)
    assert cached.polygons is cached.polygons  # built once, on first use


def test_any_geoid_string_round_trips(tmp_path, monkeypatch):
    """The GEOIDs travel as JSON, so a trailing NUL (which numpy strings
    drop), a non-ASCII letter or a lone surrogate comes back as it went."""
    geoids = ["5303300010\x00", "5303300010\u00e9", "5303300010\udc80", "53033000100"]
    features = [square_feature(geoid, float(i), 0.0) for i, geoid in enumerate(geoids)]
    path = write_feature_collection(tmp_path / "odd.geojson", features)
    fresh = load_boundaries(path, cache_dir=tmp_path / "cache")
    assert fresh.geoids() == sorted(geoids)
    assert_same_index(load_hit(path, tmp_path / "cache", monkeypatch), fresh)


def test_library_default_writes_no_cache(tmp_path, monkeypatch):
    path = write_feature_collection(tmp_path / "tracts.geojson", SHAPE_SETS["holed"]())
    monkeypatch.setattr(content_cache, "write_entry", pytest.fail)
    load_boundaries(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tracts.geojson"]


@pytest.fixture
def city(tmp_path):
    return build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)


def analyze(city, out_dir):
    assert main(analyze_argv(city, out_dir)) == 0
    return {name: (out_dir / name).read_bytes() for name in OUTPUTS}


def cache_files(city):
    """Every entry in the store's cache but the other caches' finished files
    and the finished stat memos (which memos() lists), so a temporary file of
    any cache or memo is listed."""
    return sorted(
        path for path in (city["store"] / "cache").iterdir()
        if not path.name.startswith(("snapshot-", "demographics-", "stat-v1-"))
    )


def test_two_analyze_runs_on_one_store_are_byte_identical(tmp_path, city, monkeypatch):
    first = analyze(city, tmp_path / "first")  # a miss: writes the cache
    (cache_file,) = cache_files(city)
    assert only_memos_of(city["store"] / "cache", *city_inputs(city))
    with monkeypatch.context() as patch:
        patch.setattr(geo, "_parse_boundaries", pytest.fail)
        second = analyze(city, tmp_path / "second")  # a hit
    assert second == first
    cache_file.unlink()  # deleting the cache is always safe
    assert analyze(city, tmp_path / "third") == first


def rewrite(path, edit):
    """Rewrite a cache file under a valid CRC: edit(header, parts) changes the
    header and the parts, which are then written as the body in order."""
    blob = path.read_bytes()
    end = blob.index(b"\n")
    header = json.loads(blob[:end])
    body, parts, offset = blob[end + 1 : -4], {}, 0
    for name in geo._PART_NAMES:
        dtype, shape = header[name]
        parts[name] = np.frombuffer(body, dtype, math.prod(shape), offset).reshape(shape)
        offset += parts[name].nbytes
    edit(header, parts)
    payload = json.dumps(header).encode() + b"\n" + b"".join(a.tobytes() for a in parts.values())
    path.write_bytes(payload + zlib.crc32(payload).to_bytes(4, "big"))


def edit_header(change):
    return lambda path: rewrite(path, lambda header, parts: change(header))


def set_part(name, change):
    """Replace one part, with its dtype and shape in the header."""
    def edit(header, parts):
        parts[name] = change(parts[name])
        header[name] = [parts[name].dtype.str, list(parts[name].shape)]
    return lambda path: rewrite(path, edit)


def set_body(name, change):
    """Replace one part in the body only: the header keeps its shape."""
    return lambda path: rewrite(path, lambda header, parts: parts.update({name: change(parts[name])}))


def with_first(array, value):
    array = array.copy()
    array.flat[0] = value
    return array


def empty_bands(header, parts):
    """Every band lists no edge: offsets all 0, no entries."""
    parts["band_offsets"] = np.zeros_like(parts["band_offsets"])
    parts["band_edges"] = parts["band_edges"][:0]
    header["band_edges"] = [parts["band_edges"].dtype.str, [0]]


def table_entry_past_no_tract(header, parts):
    parts["table"] = with_first(parts["table"], len(header["geoids"]) + 1)


def set_directory(value):
    """The directory's first held tile points at value (given the number of
    tiles) in place of its own position."""
    def edit(header, parts):
        parts["tiles"] = parts["tiles"].copy()
        parts["tiles"].flat[np.argmax(parts["tiles"] >= 0)] = value(len(parts["table"]))
    return lambda path: rewrite(path, edit)


def flip_a_data_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


VERSION = f"-v{geo._CACHE_VERSION}-"
OTHER_ORDER = "big" if sys.byteorder == "little" else "little"

SPOILERS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "random bytes": lambda p: p.write_bytes(np.random.default_rng(0).bytes(p.stat().st_size)),
    "empty": lambda p: p.write_bytes(b""),
    "flipped data byte": flip_a_data_byte,
    "wrong key": edit_header(lambda h: h.update(key=h["key"][:-64] + "0" * 64)),
    "other version": edit_header(lambda h: h.update(key=h["key"].replace(VERSION, "-v0-"))),
    "other byte order": edit_header(lambda h: h.update(byteorder=OTHER_ORDER)),
    "missing array": lambda p: rewrite(p, lambda h, parts: (h.pop("poly_rings"), parts.pop("poly_rings"))),
    "object dtype": edit_header(lambda h: h["rank"].__setitem__(0, "|O")),
    "wrong dtype": set_part("ring_offsets", lambda a: a.astype(np.int32)),
    "shape not ints": edit_header(lambda h: h["xy"].__setitem__(1, [float(n) for n in h["xy"][1]])),
    "offset out of range": set_part("ring_offsets", lambda a: a + np.arange(len(a))),
    "rank out of range": set_part("rank", lambda a: a + 1),
    "NaN bbox": set_part("bbox", lambda a: with_first(a, np.nan)),
    "vertex out of lon/lat range": set_part("xy", lambda a: with_first(a, 1e300)),
    "band edge id negative": set_part("band_edges", lambda a: with_first(a, -1)),
    "band edge id past the vertices": set_part("band_edges", lambda a: with_first(a, 10**9)),
    # Vertex 4 closes the first ring (a square): its "edge" would run into the next ring.
    "band edge id a closing vertex": set_part("band_edges", lambda a: with_first(a, 4)),
    "band edge id of another ring": set_part("band_edges", lambda a: with_first(a, a[-1])),
    "band offsets decreasing": set_part("band_offsets", lambda a: a[[0, 2, 1, *range(3, len(a))]]),
    "band offsets short of the edges": set_part("band_offsets", lambda a: a[:-1]),
    "band edges wrong dtype": set_part("band_edges", lambda a: a.astype(np.int32)),
    "no band lists an edge": lambda p: rewrite(p, empty_bands),
    "table entry below -1": set_part("table", lambda a: with_first(a, -2)),
    "table entry past no tract": lambda p: rewrite(p, table_entry_past_no_tract),
    "table wrong dtype": set_part("table", lambda a: a.astype(np.int64)),
    "table wrong shape": set_part("table", lambda a: a[:, :, :-1]),
    "table short of the tiles": set_part("table", lambda a: a[:-1]),
    "table transposed": set_part("table", lambda a: a.T.copy()),
    "table not 3-D": set_part("table", lambda a: a.reshape(-1)),
    "table moved": set_part("tile_grid", lambda a: a + [1, 0, 0]),
    "table side out of range": set_part("tile_grid", lambda a: a + [0, 0, 64]),
    "table side coarser": set_part("tile_grid", lambda a: a + [0, 0, 1]),
    "table grid wrong dtype": set_part("tile_grid", lambda a: a.astype(np.int32)),
    "directory value -2": set_directory(lambda n_tiles: -2),
    "directory value past the tiles": set_directory(lambda n_tiles: n_tiles),
    "directory lists a tile twice": set_directory(lambda n_tiles: n_tiles - 1),
    "directory drops a tile": set_directory(lambda n_tiles: -1),
    "directory cut short": set_part("tiles", lambda a: a[:, :-1]),
    "directory wrong dtype": set_part("tiles", lambda a: a.astype(np.int64)),
    "tile offsets decreasing": set_part("tile_offsets", lambda a: a[[0, 2, 1, *range(3, len(a))]]),
    "tile offsets short of the lists": set_part("tile_offsets", lambda a: a[:-1]),
    "tile polygon out of range": set_part("tile_polys", lambda a: with_first(a, 10**6)),
    "tile polygon negative": set_part("tile_polys", lambda a: with_first(a, -1)),
    "tile polygons wrong dtype": set_part("tile_polys", lambda a: a.astype(np.int32)),
    "body shorter than its shapes": set_body("rank", lambda a: a[:-1]),
    "body longer than its shapes": set_body("rank", lambda a: np.append(a, 0)),
    "GEOIDs not sorted": edit_header(lambda h: h["geoids"].reverse()),
    "GEOID not a str": edit_header(lambda h: h["geoids"].__setitem__(0, int(h["geoids"][0]))),
    "GEOIDs not a list": edit_header(lambda h: h.update(geoids=",".join(h["geoids"]))),
    "a directory": lambda p: (p.unlink(), p.mkdir()),
}


def test_an_unchanged_rewrite_is_still_a_hit(tmp_path, city, monkeypatch):
    """The crafted files below differ from a good one only where they say."""
    expected = analyze(city, tmp_path / "clean")
    (cache_file,) = cache_files(city)
    assert only_memos_of(city["store"] / "cache", *city_inputs(city))
    rewrite(cache_file, lambda header, parts: None)
    with monkeypatch.context() as patch:
        patch.setattr(geo, "_parse_boundaries", pytest.fail)
        assert analyze(city, tmp_path / "again") == expected


@pytest.mark.parametrize("spoil", sorted(SPOILERS))
def test_bad_cache_file_is_a_silent_miss(tmp_path, city, monkeypatch, spoil):
    expected = analyze(city, tmp_path / "clean")
    (cache_file,) = cache_files(city)
    assert only_memos_of(city["store"] / "cache", *city_inputs(city))
    SPOILERS[spoil](cache_file)
    parses = []
    parse = geo._parse_boundaries
    monkeypatch.setattr(geo, "_parse_boundaries", lambda *a: parses.append(1) or parse(*a))
    assert analyze(city, tmp_path / "spoiled") == expected
    assert parses == [1]
    assert only_memos_of(city["store"] / "cache", *city_inputs(city))
    if spoil == "a directory":
        # Nothing replaces a directory, and no temporary file is left.
        assert cache_files(city) == [cache_file] and cache_file.is_dir()
        return
    # The miss rewrote the file, so the next run is a hit.
    assert cache_files(city) == [cache_file]
    assert analyze(city, tmp_path / "again") == expected
    assert parses == [1]


def test_old_version_file_is_never_read(tmp_path, city, monkeypatch):
    """Files under earlier versions' names (0; 2, the layout before the edge
    bands; 3, the layout before the answer table; 4, the layout before its
    tiles) are never read; the current file is written, and they are
    deleted."""
    # Newest first: each write deletes the versions below its own.
    for version in (4, 3, 2, 0):
        monkeypatch.setattr(geo, "_CACHE_VERSION", version)
        expected = analyze(city, tmp_path / f"v{version}")
        monkeypatch.undo()
    old = cache_files(city)
    assert len(old) == 4
    assert only_memos_of(city["store"] / "cache", *city_inputs(city))
    (v2,) = [path for path in old if "-v2-" in path.name]
    (v3,) = [path for path in old if "-v3-" in path.name]

    def drop(*names):
        def edit(header, parts):
            for name in names:
                del header[name], parts[name]
        return edit

    tiles = ("tile_grid", "tile_offsets", "tile_polys", "tiles", "table")
    rewrite(v3, drop(*tiles))
    rewrite(v2, drop("band_offsets", "band_edges", *tiles))
    read = content_cache.read_entry

    def read_current(path, key, decode):
        assert path not in old, "read an old-version cache file"
        return read(path, key, decode)

    monkeypatch.setattr(content_cache, "read_entry", read_current)
    assert analyze(city, tmp_path / "current") == expected
    assert [path.name for path in cache_files(city)] == [
        content_key(f"tract-index-v{geo._CACHE_VERSION}", city["boundaries"].read_bytes())
    ]
    assert only_memos_of(city["store"] / "cache", *city_inputs(city))


def test_npz_file_of_the_first_layout_is_never_read(tmp_path, city, monkeypatch):
    """A tract-index-v1-cell<size>-<sha256>.npz file, as the first layout
    named it, is never read; the current file is written, and it is
    deleted."""
    data = city["boundaries"].read_bytes()
    npz = city["store"] / "cache" / (content_key("tract-index-v1-cell0.05", data) + ".npz")
    npz.parent.mkdir()
    npz.write_bytes(b"PK\x03\x04 an old zip archive")
    reads = []
    read = content_cache.read_entry
    monkeypatch.setattr(
        content_cache, "read_entry", lambda path, *args: reads.append(path) or read(path, *args)
    )
    expected = analyze(city, tmp_path / "first")
    current = city["store"] / "cache" / content_key(f"tract-index-v{geo._CACHE_VERSION}", data)
    assert cache_files(city) == [current]
    assert only_memos_of(city["store"] / "cache", *city_inputs(city))
    with monkeypatch.context() as patch:
        patch.setattr(geo, "_parse_boundaries", pytest.fail)
        assert analyze(city, tmp_path / "second") == expected
    # analyze reads the snapshot cache through the same function.
    assert [path for path in reads if path.name.startswith("tract-index-")] == [current, current]


def test_failed_boundary_load_writes_no_cache(tmp_path, city, capsys):
    doc = json.loads(city["boundaries"].read_text())
    doc["features"][3]["geometry"]["coordinates"][0][2][1] = None
    boundaries = tmp_path / "bad.geojson"
    boundaries.write_text(json.dumps(doc))
    assert main(analyze_argv(city, tmp_path / "out", boundaries)) == 1
    assert capsys.readouterr().err.startswith("error: stage load_boundaries: feature 3: ")
    assert cache_files(city) == []
    # The snapshot loaded before the failed stage; the boundary file left no memo.
    assert only_memos_of(city["store"] / "cache", *city["store"].glob("snapshot_*.csv"))


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
