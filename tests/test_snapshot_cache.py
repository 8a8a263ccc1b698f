"""The parsed-snapshot cache: a cached read equals the uncached read record
by record, and no cache file (bad, foreign, stale, unwritable or missing)
changes what load_snapshot, map or analyze return or report."""

import json
import os
import random
import sys
import zlib
from array import array
from itertools import chain

import pytest

from bikeshare_equity import content_cache, snapshot_store
from bikeshare_equity.cli import main
from bikeshare_equity.snapshot_store import (
    BikeObservation,
    DockingType,
    append_snapshot,
    load_snapshot,
)
from helpers import build_synthetic_city, city_inputs, memos, memos_of, observation, observations_of
from test_cli import analyze_argv

OUTPUTS = ("table1.csv", "table2.csv", "run_manifest.json")


@pytest.fixture
def city(tmp_path):
    return build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)


@pytest.fixture
def parses(monkeypatch):
    """One entry per CSV parse of a snapshot file."""
    calls = []
    read = snapshot_store.read_observations_csv
    monkeypatch.setattr(
        snapshot_store, "read_observations_csv", lambda fh: calls.append(1) or read(fh)
    )
    return calls


def snapshot_caches(store):
    """Every entry in the store's cache but the other caches' finished files
    and the finished stat memos (which memos() lists), so a temporary file of
    any cache or memo is listed."""
    return sorted(
        path for path in (store / "cache").iterdir()
        if not path.name.startswith(("tract-index-", "demographics-", "stat-v1-"))
    )


def analyze(city, out_dir):
    assert main(analyze_argv(city, out_dir)) == 0
    return {name: (out_dir / name).read_bytes() for name in OUTPUTS}


def map_svg(store, out_dir, *extra):
    assert main(["map", "--store", str(store), "--out", str(out_dir), *extra]) == 0
    return (out_dir / "map.svg").read_bytes()


def test_cached_records_equal_the_uncached_read(city, parses):
    store = city["store"]
    fresh = list(load_snapshot(store))
    missed = list(load_snapshot(store, cache_dir=store / "cache"))
    hit = list(load_snapshot(store, cache_dir=store / "cache"))
    assert parses == [1, 1]
    assert missed == fresh and hit == fresh == city["observations"]
    for got in (missed, hit):
        assert [tuple(map(type, obs)) for obs in got] == [tuple(map(type, obs)) for obs in fresh]
        assert all(type(obs) is BikeObservation for obs in got)
    # The run-length columns share one object per run.
    for a, b in zip(hit, hit[1:]):
        for column in ("system_id", "docking_type", "observed_at"):
            same = getattr(a, column) == getattr(b, column)
            assert (getattr(a, column) is getattr(b, column)) == same, column


def element_types(records):
    return [tuple(map(type, record)) for record in records]


def separator_of(store):
    (cache_file,) = snapshot_caches(store)
    blob = cache_file.read_bytes()
    return json.loads(blob[:blob.index(b"\n")])["separator"]


LATIN_1 = [chr(code) for code in range(0x100)]
NUL = pytest.mark.skipif(sys.version_info < (3, 11), reason="csv before Python 3.11 reads no NUL")
# Entity ids, and the separator their cache file takes: the first code point
# that no id holds.
ID_CASES = [
    pytest.param(["", "e1", ""], "\0", id="an empty id"),
    pytest.param(["a\0b", "\0", "\x01c", "\0\0"], "\x02", id="ids holding U+0000", marks=NUL),
    pytest.param(LATIN_1 + ["".join(LATIN_1)], "\u0100", id="every code point to U+00FF", marks=NUL),
    pytest.param(["\u0100é中\U0001f6b2"], "\0", id="one row"),
    pytest.param([], "\0", id="zero rows"),
]


def snapshot_of(ids):
    kinds = [DockingType.FREE, DockingType.DOCKED]
    return [
        observation("sys", entity_id, 45.0 + i / 64, -122.0 - i / 64, kinds[i % 2], 100 + i // 3)
        for i, entity_id in enumerate(ids)
    ]


@pytest.mark.parametrize(("ids", "separator"), ID_CASES)
def test_ids_round_trip_through_the_cache(tmp_path, parses, ids, separator):
    """A miss and a hit return what the CSV parse returns, value by value
    and type by type."""
    store = tmp_path / "store"
    append_snapshot(observations_of(snapshot_of(ids)), store)
    fresh = list(load_snapshot(store))
    missed = list(load_snapshot(store, cache_dir=store / "cache"))
    hit = list(load_snapshot(store, cache_dir=store / "cache"))
    assert parses == [1, 1]
    assert fresh == snapshot_of(ids)
    assert [obs.entity_id for obs in fresh] == ids
    for got in (missed, hit):
        assert got == fresh
        assert element_types(got) == element_types(fresh)
    assert separator_of(store) == separator


def test_a_hit_keeps_the_ids_joined_until_they_are_read(tmp_path):
    store = tmp_path / "store"
    ids = ["e1", "", "e,3"]
    append_snapshot(observations_of(snapshot_of(ids)), store)
    load_snapshot(store, cache_dir=store / "cache")
    hit = load_snapshot(store, cache_dir=store / "cache")
    assert type(hit._entity_ids) is snapshot_store._JoinedIds
    assert len(hit) == 3 and hit and list(hit.lons) == [-122.0, -122.0 - 1 / 64, -122.0 - 2 / 64]
    assert type(hit._entity_ids) is snapshot_store._JoinedIds
    assert hit.entity_ids == ids and hit.entity_ids is hit.entity_ids
    assert [obs.entity_id for obs in hit] == ids


@NUL
def test_ids_using_every_code_point_are_read_but_never_hit(tmp_path, parses):
    """No character is left to separate them, so the cache file written is a
    miss: each cached read parses the CSV, and returns what the parse does."""
    code_points = list(map(chr, chain(range(0xD800), range(0xE000, 0x110000))))
    # Each id is within csv's default field size limit of 131,072 characters.
    ids = ["".join(code_points[start:start + 100_000]) for start in range(0, len(code_points), 100_000)]
    store = tmp_path / "store"
    append_snapshot(observations_of(snapshot_of(ids)), store)
    fresh = list(load_snapshot(store))
    assert [obs.entity_id for obs in fresh] == ids
    for _ in range(2):
        assert list(load_snapshot(store, cache_dir=store / "cache")) == fresh
    assert parses == [1, 1, 1]
    assert separator_of(store) is None


def test_miss_is_cached_under_the_key_of_the_bytes_parsed(tmp_path, monkeypatch, parses):
    """A snapshot file edited after it was hashed (a miss) and before it was
    read is cached under its new bytes' key, never under the old bytes' key."""
    store = tmp_path / "store"
    append_snapshot(observations_of([observation("sys", "e1", 45.0, -122.0)]), store)
    (snapshot,) = store.glob("snapshot_*.csv")
    hash_file = content_cache.file_content_key

    def hash_then_edit(prefix, file):
        key = hash_file(prefix, file)
        snapshot.write_text(snapshot.read_text().replace("e1", "e9"))
        return key

    monkeypatch.setattr(content_cache, "file_content_key", hash_then_edit)
    (got,) = load_snapshot(store, cache_dir=store / "cache")
    monkeypatch.setattr(content_cache, "file_content_key", hash_file)
    assert got.entity_id == "e9"
    (cache_file,) = snapshot_caches(store)
    assert memos(store / "cache") == memos_of(snapshot)
    prefix = f"snapshot-v{snapshot_store._CACHE_VERSION}"
    assert cache_file.name == content_cache.content_key(prefix, snapshot.read_bytes())
    assert list(load_snapshot(store, cache_dir=store / "cache")) == [got]
    assert parses == [1]


def test_library_default_writes_no_cache(tmp_path, monkeypatch):
    append_snapshot(observations_of([observation("sys", "e1", 45.0, -122.0)]), tmp_path)
    monkeypatch.setattr(content_cache, "write_entry", pytest.fail)
    load_snapshot(tmp_path)
    assert not (tmp_path / "cache").exists()


def test_two_map_and_analyze_runs_on_one_store_are_byte_identical(tmp_path, city, parses):
    first_map = map_svg(city["store"], tmp_path / "map1")  # a miss: writes the cache
    first = analyze(city, tmp_path / "first")  # a hit
    (cache_file,) = snapshot_caches(city["store"])
    assert memos(city["store"] / "cache") == memos_of(*city_inputs(city))
    assert parses == [1]
    assert map_svg(city["store"], tmp_path / "map2") == first_map
    assert analyze(city, tmp_path / "second") == first
    assert parses == [1]
    cache_file.unlink()  # deleting the cache is always safe
    assert analyze(city, tmp_path / "third") == first
    assert parses == [1, 1]


def test_range_selector_over_cached_snapshots_equals_uncached_read(tmp_path, parses):
    store = tmp_path / "store"
    for t in range(4):
        append_snapshot(observations_of(
            [observation("sys", f"e{i}", 40.0 + t, -100.0 - i, DockingType.FREE, 100 * t + i)
             for i in range(t, t + 5)]
            + [observation("dock", "s1", 41.0, -101.0, DockingType.DOCKED, 100 * t)]
        ), store)
    for selector in [(0, 10_000), (100, 250), "latest", 2]:
        fresh = list(load_snapshot(store, selector))
        parses.clear()
        assert list(load_snapshot(store, selector, cache_dir=store / "cache")) == fresh
        assert list(load_snapshot(store, selector, cache_dir=store / "cache")) == fresh
        assert len(parses) <= len(snapshot_caches(store))
    assert len(snapshot_caches(store)) == 4
    assert memos(store / "cache") == memos_of(*store.glob("snapshot_*.csv"))
    parses.clear()
    load_snapshot(store, (0, 10_000), cache_dir=store / "cache")
    assert parses == []


@pytest.mark.parametrize("command", ["analyze", "map"])
def test_edited_snapshot_after_a_cached_run_is_a_miss(tmp_path, city, capsys, command):
    argv = analyze_argv(city, tmp_path / "out") if command == "analyze" else [
        "map", "--store", str(city["store"]), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert len(snapshot_caches(city["store"])) == 1
    (snapshot,) = city["store"].glob("snapshot_*.csv")
    lines = snapshot.read_text().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[2] = "north"
    lines[3] = ",".join(fields)
    snapshot.write_text("".join(lines))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage load_snapshot: observation CSV row 3: lat, lon ('north'"), err
    assert len(snapshot_caches(city["store"])) == 1  # the failed read cached nothing


def test_failed_snapshot_read_writes_no_cache(tmp_path, capsys):
    store = tmp_path / "store"
    append_snapshot(observations_of([observation("sys", "e1", 45.0, -122.0)]), store)
    (snapshot,) = store.glob("snapshot_*.csv")
    snapshot.write_bytes(snapshot.read_bytes() + b"sys,e2,1.0,2.0,free,soon\n")
    assert main(["map", "--store", str(store), "--out", str(tmp_path / "out")]) == 1
    assert "row 2: observed_at 'soon' is not an integer" in capsys.readouterr().err
    assert not (store / "cache").exists()


# ---------------------------------------------------------------------------
# Bad cache files: each is a silent miss, and the miss rewrites the file
# ---------------------------------------------------------------------------


def rewrite(path, edit):
    """Rewrite a cache file with its header, coordinates and id text changed
    by edit, under a valid CRC. edit(header, values, text) edits in place the
    header, the lat and lon columns as one list of floats, and the UTF-8 id
    text after them as a bytearray."""
    blob = path.read_bytes()
    end = blob.index(b"\n")
    header = json.loads(blob[:end])
    body = blob[end + 1:-4]
    coordinates = array("d")
    coordinates.frombytes(body[:16 * header["n"]])
    values = coordinates.tolist()
    text = bytearray(body[16 * header["n"]:])
    edit(header, values, text)
    payload = json.dumps(header).encode() + b"\n" + array("d", values).tobytes() + text
    path.write_bytes(payload + zlib.crc32(payload).to_bytes(4, "big"))


def set_header(name, value):
    return lambda path: rewrite(path, lambda header, values, text: header.__setitem__(name, value))


def edit_header(edit):
    return lambda path: rewrite(path, lambda header, values, text: edit(header))


def set_coordinate(index, value):
    return lambda path: rewrite(path, lambda header, values, text: values.__setitem__(index, value))


def edit_text(edit):
    """Edit the id text and keep the header's id_bytes true to it, so that
    only the text's own checks can find the fault."""
    def edit_both(header, values, text):
        edit(text)
        header["id_bytes"] = len(text)
    return lambda path: rewrite(path, edit_both)


def double_separator(header, values, text):
    """Separate the ids by two U+0000s: a split would still find them."""
    header["separator"] = "\0\0"
    text[:] = text.replace(b"\0", b"\0\0")
    header["id_bytes"] = len(text)


def flip_byte(at):
    """Flip a bit of the byte at(data), the file's bytes."""
    def spoil(path):
        data = bytearray(path.read_bytes())
        data[at(data)] ^= 0x01
        path.write_bytes(bytes(data))
    return spoil


VERSION = f"snapshot-v{snapshot_store._CACHE_VERSION}-"
OTHER_ORDER = "big" if sys.byteorder == "little" else "little"

SPOILERS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "empty": lambda p: p.write_bytes(b""),
    "random bytes": lambda p: p.write_bytes(random.Random(0).randbytes(p.stat().st_size)),
    "flipped header byte": flip_byte(lambda data: 20),
    "flipped coordinate byte": flip_byte(lambda data: data.index(b"\n") + 30),
    "flipped id text byte": flip_byte(lambda data: len(data) - 30),
    "flipped crc byte": flip_byte(lambda data: len(data) - 1),
    "wrong key": edit_header(lambda h: h.__setitem__("key", h["key"][:-64] + "0" * 64)),
    "other version": edit_header(lambda h: h.__setitem__("key", h["key"].replace(VERSION, "snapshot-v0-"))),
    "other byte order": set_header("byteorder", OTHER_ORDER),
    "not an object": lambda p: rewrite(p, lambda h, v, t: (h.clear(), v.clear(), t.clear())),
    "n off by one": edit_header(lambda h: h.__setitem__("n", h["n"] + 1)),
    "n not an int": edit_header(lambda h: h.__setitem__("n", float(h["n"]))),
    "coordinate dropped": lambda p: rewrite(p, lambda h, v, t: v.pop()),
    "separator of two characters": lambda p: rewrite(p, double_separator),
    "separator not a str": set_header("separator", 0),
    "separator missing": edit_header(lambda h: h.pop("separator")),
    "id text not UTF-8": edit_text(lambda t: t.__setitem__(0, 0xFF)),
    "id text cut inside a character": edit_text(lambda t: t.extend("é".encode()[:1])),
    "a separator removed": edit_text(lambda t: t.remove(0)),
    "id text cut short": edit_text(lambda t: t.__delitem__(slice(len(t) // 2, None))),
    "no id text": edit_text(lambda t: t.clear()),
    "id text shorter than id_bytes": lambda p: rewrite(p, lambda h, v, t: t.pop()),
    "id_bytes off by one": edit_header(lambda h: h.__setitem__("id_bytes", h["id_bytes"] - 1)),
    "id_bytes not an int": edit_header(lambda h: h.__setitem__("id_bytes", float(h["id_bytes"]))),
    "system id not a str": edit_header(lambda h: h["system_id"][0].__setitem__(0, None)),
    "run length short": edit_header(lambda h: h["system_id"][0].__setitem__(1, h["system_id"][0][1] - 1)),
    "run length zero": edit_header(lambda h: h["docking_type"].append(["free", 0])),
    "run length not an int": edit_header(lambda h: h["observed_at"][0].__setitem__(1, float(h["observed_at"][0][1]))),
    "run not a pair": edit_header(lambda h: h["observed_at"][0].append(1)),
    "unknown docking type": edit_header(lambda h: h["docking_type"][0].__setitem__(0, "Free")),
    "observed_at not an int": edit_header(lambda h: h["observed_at"][0].__setitem__(0, 1.5)),
    "observed_at a bool": edit_header(lambda h: h["observed_at"][0].__setitem__(0, True)),
    "lat out of range": set_coordinate(0, 91.0),
    "lon out of range": set_coordinate(-1, -180.5),
    "lat NaN": set_coordinate(1, float("nan")),
    "lon infinite": set_coordinate(-2, float("inf")),
    "a directory": lambda p: (p.unlink(), p.mkdir()),
}


def test_an_unchanged_rewrite_is_still_a_hit(city, parses):
    """The crafted files below differ from a good one only where they say."""
    store = city["store"]
    expected = list(load_snapshot(store, cache_dir=store / "cache"))
    (cache_file,) = snapshot_caches(store)
    assert memos(store / "cache") == memos_of(*store.glob("snapshot_*.csv"))
    rewrite(cache_file, lambda header, values, text: None)
    assert list(load_snapshot(store, cache_dir=store / "cache")) == expected
    assert parses == [1]


def test_a_zero_row_file_holding_an_id_is_a_miss(tmp_path, parses):
    store = tmp_path / "store"
    append_snapshot(observations_of([]), store)
    assert list(load_snapshot(store, cache_dir=store / "cache")) == []
    (cache_file,) = snapshot_caches(store)
    edit_text(lambda text: text.extend(b"e1"))(cache_file)
    assert list(load_snapshot(store, cache_dir=store / "cache")) == []
    assert parses == [1, 1]


@pytest.mark.parametrize("spoil", sorted(SPOILERS))
def test_bad_cache_file_is_a_silent_miss(tmp_path, city, parses, spoil):
    store = city["store"]
    expected = list(load_snapshot(store, cache_dir=store / "cache"))
    expected_svg = map_svg(store, tmp_path / "clean")
    (cache_file,) = snapshot_caches(store)
    snapshot_memos = memos_of(*store.glob("snapshot_*.csv"))
    assert memos(store / "cache") == snapshot_memos
    SPOILERS[spoil](cache_file)
    parses.clear()
    assert list(load_snapshot(store, cache_dir=store / "cache")) == expected
    assert parses == [1]
    assert memos(store / "cache") == snapshot_memos
    if spoil == "a directory":
        # Nothing replaces a directory, and no temporary file is left.
        assert snapshot_caches(store) == [cache_file] and cache_file.is_dir()
        assert map_svg(store, tmp_path / "spoiled") == expected_svg
        return
    # The miss rewrote the file, so the next read is a hit.
    assert snapshot_caches(store) == [cache_file]
    assert map_svg(store, tmp_path / "again") == expected_svg
    assert parses == [1]


def test_old_version_file_is_never_read(city, monkeypatch, parses):
    store = city["store"]
    monkeypatch.setattr(snapshot_store, "_CACHE_VERSION", 0)
    expected = list(load_snapshot(store, cache_dir=store / "cache"))
    monkeypatch.undo()
    (old,) = snapshot_caches(store)
    assert old.name.startswith("snapshot-v0-")
    assert memos(store / "cache") == memos_of(*store.glob("snapshot_*.csv"))
    read = content_cache.read_entry

    def read_current(path, key, decode):
        assert path != old, "read an old-version cache file"
        return read(path, key, decode)

    monkeypatch.setattr(content_cache, "read_entry", read_current)
    assert list(load_snapshot(store, cache_dir=store / "cache")) == expected
    # Writing the current file deleted the old one.
    (current,) = snapshot_caches(store)
    assert current.name.startswith(f"snapshot-v{snapshot_store._CACHE_VERSION}-")
    assert memos(store / "cache") == memos_of(*store.glob("snapshot_*.csv"))


def test_file_named_by_the_merged_reader_version_is_an_orphan(tmp_path, city, monkeypatch, parses):
    """A ``snapshot-v1-r1-*`` file, named by the cache and reader versions
    that _CACHE_VERSION 2 replaced, is never read, and map and analyze write
    what they write without it; writing the current file deletes it."""
    store = city["store"]
    expected = analyze(city, tmp_path / "a0")
    expected_svg = map_svg(store, tmp_path / "m0")
    for path in snapshot_caches(store):
        path.unlink()
    (snapshot,) = store.glob("snapshot_*.csv")
    data = snapshot.read_bytes()
    # Written in the current layout, under the old name.
    key = content_cache.content_key("snapshot-v1-r1", data)
    old = store / "cache" / key
    content_cache.write_entry(old, key, *snapshot_store._encode(snapshot_store._parse_csv(data)))
    read = content_cache.read_entry

    def read_current(path, key, decode):
        assert path != old, "read a snapshot-v1-r1 cache file"
        return read(path, key, decode)

    monkeypatch.setattr(content_cache, "read_entry", read_current)
    parses.clear()
    assert analyze(city, tmp_path / "a1") == expected
    assert map_svg(store, tmp_path / "m1") == expected_svg
    assert parses == [1]
    assert not old.exists()
    assert len(snapshot_caches(store)) == 1
    assert memos(store / "cache") == memos_of(*city_inputs(city))


# ---------------------------------------------------------------------------
# Locations that cannot be written
# ---------------------------------------------------------------------------


def test_unwritable_cache_location_gets_no_writes(tmp_path, city, monkeypatch):
    store = city["store"]
    expected = list(load_snapshot(store))
    cache = store / "cache"
    cache.mkdir()

    def refuse_writes(file, mode="r", *args, **kwargs):
        if set(mode) & set("wxa+"):
            raise PermissionError("read-only file system")
        return open(file, mode, *args, **kwargs)

    # Shadows the built-in open in content_cache, as a read-only cache
    # directory would, whoever the user is; the input is still hashed.
    monkeypatch.setattr(content_cache, "open", refuse_writes, raising=False)
    assert list(load_snapshot(store, cache_dir=cache)) == expected
    assert list(load_snapshot(store, cache_dir=cache)) == expected
    assert list(cache.iterdir()) == []


def test_read_only_cache_directory_is_not_written(tmp_path, city):
    cache = city["store"] / "cache"
    cache.mkdir()
    cache.chmod(0o555)
    try:
        if os.access(cache, os.W_OK):
            pytest.skip("this user writes to a read-only directory (the superuser does)")
        svg = map_svg(city["store"], tmp_path / "out")
        assert map_svg(city["store"], tmp_path / "again") == svg
        assert analyze(city, tmp_path / "a1") == analyze(city, tmp_path / "a2")
        assert list(cache.iterdir()) == []
    finally:
        cache.chmod(0o755)


def test_cache_path_that_is_a_file_is_left_alone(tmp_path, city):
    expected = map_svg(city["store"], tmp_path / "clean")
    for path in snapshot_caches(city["store"]):
        path.unlink()
    for name in memos_of(*city["store"].glob("snapshot_*.csv")):
        (city["store"] / "cache" / name).unlink()
    (city["store"] / "cache").rmdir()
    (city["store"] / "cache").write_bytes(b"not a directory")
    assert map_svg(city["store"], tmp_path / "out") == expected
    assert (city["store"] / "cache").read_bytes() == b"not a directory"
