"""The one cache-file frame: write_entry's file reads back through read_entry
as written, and every fault in the file reads as None (a miss); and the one
cached-load protocol, load, on top of it."""

import json
import os
import sys
import zlib
from array import array

import numpy as np
import pytest

from bikeshare_equity import content_cache, snapshot_store
from bikeshare_equity.content_cache import (
    content_key,
    file_content_key,
    load,
    read_entry,
    write_entry,
)
from bikeshare_equity.snapshot_store import DockingType
from helpers import observation

KEY = "thing-v1-" + "ab" * 32
OTHER_ORDER = "big" if sys.byteorder == "little" else "little"


def decode(header, body):
    """The header's fields and the body's float64s."""
    values = array("d")
    values.frombytes(body)
    return header, values.tolist()


@pytest.fixture
def entry(tmp_path):
    path = tmp_path / KEY
    header = {"n": 3, "names": ["a", "\x00b", "\udc80"]}
    write_entry(path, KEY, header, [array("d", [1.5, -2.0]), array("d", [3.25])])
    return path


def reframe(path, edit):
    """Rewrite the file with its header edited, under a valid CRC."""
    blob = path.read_bytes()
    end = blob.index(b"\n")
    header = edit(json.loads(blob[:end]))
    payload = json.dumps(header).encode() + blob[end:-4]
    path.write_bytes(payload + zlib.crc32(payload).to_bytes(4, "big"))


def test_entry_reads_back_as_written(entry):
    header, values = read_entry(entry, KEY, decode)
    assert header == {
        "key": KEY, "byteorder": sys.byteorder, "n": 3, "names": ["a", "\x00b", "\udc80"]
    }
    assert list(header) == ["key", "byteorder", "n", "names"]
    assert values == [1.5, -2.0, 3.25]


def test_layout_is_header_line_body_crc(entry):
    blob = entry.read_bytes()
    line = json.dumps(
        {"key": KEY, "byteorder": sys.byteorder, "n": 3, "names": ["a", "\x00b", "\udc80"]},
        separators=(",", ":"),
    ).encode("ascii") + b"\n"
    payload = line + array("d", [1.5, -2.0, 3.25]).tobytes()
    assert blob == payload + zlib.crc32(payload).to_bytes(4, "big")


@pytest.mark.parametrize("align", [1, 8, 64])
def test_aligned_body_starts_at_a_multiple(tmp_path, align):
    path = tmp_path / KEY
    parts = [np.arange(6, dtype=np.float64).reshape(3, 2), np.arange(4, dtype=np.int64)]
    write_entry(path, KEY, {"n": len(parts)}, parts, align=align)
    blob = path.read_bytes()
    start = blob.index(b"\n") + 1
    assert start % align == 0
    assert blob[start:-4] == b"".join(part.tobytes() for part in parts)
    assert read_entry(path, KEY, lambda header, body: len(body)) == 80
    # Padding is spaces, so the header is still one JSON object.
    assert json.loads(blob[:start])["n"] == 2


def flip_byte(at):
    def spoil(path):
        data = bytearray(path.read_bytes())
        data[at(len(data))] ^= 0x01
        path.write_bytes(bytes(data))
    return spoil


SPOILERS = {
    "wrong key": lambda p: reframe(p, lambda h: {**h, "key": KEY[:-1] + "0"}),
    "other byte order": lambda p: reframe(p, lambda h: {**h, "byteorder": OTHER_ORDER}),
    "no byte order": lambda p: reframe(p, lambda h: {"key": h["key"], "n": h["n"]}),
    "flipped crc byte": flip_byte(lambda size: size - 1),
    "flipped body byte": flip_byte(lambda size: size - 6),
    "flipped header byte": flip_byte(lambda size: 3),
    "truncated": lambda p: p.write_bytes(p.read_bytes()[:-7]),
    "only a crc": lambda p: p.write_bytes(zlib.crc32(b"").to_bytes(4, "big")),
    "empty": lambda p: p.write_bytes(b""),
    "no newline": lambda p: p.write_bytes(b"{}" + zlib.crc32(b"{}").to_bytes(4, "big")),
    "header not an object": lambda p: reframe(p, lambda h: [h]),
    "header not JSON": lambda p: p.write_bytes(
        b"{key\n" + zlib.crc32(b"{key\n").to_bytes(4, "big")
    ),
    "a directory": lambda p: (p.unlink(), p.mkdir()),
    "missing": lambda p: p.unlink(),
}


@pytest.mark.parametrize("spoil", sorted(SPOILERS))
def test_bad_entry_is_a_miss(entry, spoil):
    SPOILERS[spoil](entry)
    assert read_entry(entry, KEY, decode) is None


def test_decode_raising_is_a_miss(entry):
    def refuse(header, body):
        raise KeyError("no such field")

    assert read_entry(entry, KEY, refuse) is None


def test_unchanged_reframe_is_still_read(entry):
    """The crafted files above differ from a good one only where they say."""
    expected = read_entry(entry, KEY, decode)
    reframe(entry, lambda header: header)
    assert read_entry(entry, KEY, decode) == expected


def test_unwritable_location_writes_nothing(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_bytes(b"not a directory")
    write_entry(blocker / KEY, KEY, {}, [b"x"])
    assert blocker.read_bytes() == b"not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]


def test_snapshot_cache_file_keeps_its_layout(tmp_path):
    """The snapshot cache's files are byte for byte those of its first
    layout, so a file written before the frame was shared is still a hit."""
    store = tmp_path / "store"
    snapshot_store.append_snapshot(
        [observation("sys", "e1", 45.5, -122.25, DockingType.FREE, 7),
         observation("sys", "e,2", -45.0, 179.5, DockingType.FREE, 7),
         observation("dock", "s1", 0.0, -0.0, DockingType.DOCKED, 9)],
        store,
    )
    snapshot_store.load_snapshot(store, cache_dir=tmp_path / "cache")
    (path,) = (tmp_path / "cache").iterdir()
    line = json.dumps({
        "key": path.name, "byteorder": sys.byteorder, "n": 3,
        "system_id": [["sys", 2], ["dock", 1]], "entity_id": ["e1", "e,2", "s1"],
        "docking_type": [["free", 2], ["docked", 1]], "observed_at": [[7, 2], [9, 1]],
    }, separators=(",", ":")).encode("ascii") + b"\n"
    payload = line + array("d", [45.5, -45.0, 0.0, -122.25, 179.5, -0.0]).tobytes()
    assert path.read_bytes() == payload + zlib.crc32(payload).to_bytes(4, "big")


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 200_000])
def test_file_content_key_is_the_content_key_of_its_bytes(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    (tmp_path / "input").write_bytes(data)
    assert file_content_key("thing-v1", tmp_path / "input") == content_key("thing-v1", data)


# ---------------------------------------------------------------------------
# load: the whole protocol, given a cache's parse, encode and decode
# ---------------------------------------------------------------------------


def parse_words(data):
    return data.decode("ascii").split(",")


def encode_words(words):
    return {"words": words}, [b"body"]


def decode_words(header, body):
    assert bytes(body) == b"body"
    return header["words"]


def load_words(path, cache_dir, parse=parse_words):
    return load(path, cache_dir, "words-v1", parse, encode_words, decode_words)


@pytest.fixture
def words(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"a,b,c")
    return path


def test_load_without_a_cache_dir_parses_and_writes_nothing(tmp_path, words, monkeypatch):
    monkeypatch.setattr(content_cache, "write_entry", pytest.fail)
    monkeypatch.setattr(content_cache, "read_entry", pytest.fail)
    assert load_words(words, None) == ["a", "b", "c"]
    assert list(tmp_path.iterdir()) == [words]


def test_load_miss_writes_the_entry_and_a_hit_never_parses(tmp_path, words):
    cache = tmp_path / "cache"
    assert load_words(words, cache) == ["a", "b", "c"]
    (entry,) = cache.iterdir()
    assert entry.name == content_key("words-v1", b"a,b,c")
    assert load_words(words, cache, parse=pytest.fail) == ["a", "b", "c"]
    assert list(cache.iterdir()) == [entry]


def test_load_parse_error_propagates_and_writes_nothing(tmp_path, words):
    def refuse(data):
        raise ValueError("not words")

    with pytest.raises(ValueError, match="not words"):
        load_words(words, tmp_path / "cache", parse=refuse)
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("make", ["missing", "a directory"])
def test_load_of_an_unreadable_input_raises_oserror(tmp_path, cached, make):
    path = tmp_path / "input"
    if make == "a directory":
        path.mkdir()
    with pytest.raises(OSError):
        load_words(path, tmp_path / "cache" if cached else None, parse=pytest.fail)
    assert not (tmp_path / "cache").exists()



# ---------------------------------------------------------------------------
# A write deletes the files of the same cache's earlier versions
# ---------------------------------------------------------------------------


def load_words_at(version, path, cache_dir, parse=parse_words):
    return load(path, cache_dir, f"words-v{version}", parse, encode_words, decode_words)


def test_load_miss_deletes_older_versions_only(tmp_path, words):
    cache = tmp_path / "cache"
    cache.mkdir()
    keep = [
        content_key("words-v3", b"other bytes"),  # the current version
        content_key("words-v4", b"a,b,c"),  # a later version
        content_key("wordsmith-v1", b"a,b,c"),  # another cache
        content_key("other-v1", b"a,b,c"),
        "words-v2",  # no version and content
        "words-vx-1",
        ".words-v1-abc.tmp",
        "notes.txt",
    ]
    old = ["words-v0-" + "ab" * 32, content_key("words-v2", b"a,b,c"), "words-v1-cell0.05-ab.npz"]
    for name in keep + old:
        (cache / name).write_bytes(b"x")
    (cache / "words-v1-dir").mkdir()  # not a file: left
    assert load_words_at(3, words, cache) == ["a", "b", "c"]
    current = content_key("words-v3", b"a,b,c")
    assert sorted(p.name for p in cache.iterdir()) == sorted([*keep, "words-v1-dir", current])
    # A hit writes nothing, so it deletes nothing either.
    (cache / old[0]).write_bytes(b"x")
    assert load_words_at(3, words, cache, parse=pytest.fail) == ["a", "b", "c"]
    assert (cache / old[0]).exists()


def test_failed_deletes_never_fail_a_load(tmp_path, words, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    old = cache / content_key("words-v1", b"a,b,c")
    old.write_bytes(b"x")

    def refuse(*args, **kwargs):
        raise PermissionError("read-only")

    for name in ("unlink", "scandir"):
        with monkeypatch.context() as patch:
            patch.setattr(content_cache.os, name, refuse)
            assert load_words_at(2, words, cache) == ["a", "b", "c"]
        assert old.exists()
        (cache / content_key("words-v2", b"a,b,c")).unlink()


def test_read_only_directory_still_loads(tmp_path, words):
    cache = tmp_path / "cache"
    cache.mkdir()
    old = cache / content_key("words-v1", b"a,b,c")
    old.write_bytes(b"x")
    cache.chmod(0o555)
    try:
        if os.access(cache, os.W_OK):
            pytest.skip("this user writes to a read-only directory (the superuser does)")
        assert load_words_at(2, words, cache) == ["a", "b", "c"]
        assert [p.name for p in cache.iterdir()] == [old.name]
    finally:
        cache.chmod(0o755)


def test_reader_whose_file_is_deleted_misses(tmp_path, words, monkeypatch):
    """A reader of version 1 whose file a version-2 load deletes between its
    hash and its read gets a miss: a parse, never a wrong answer."""
    cache = tmp_path / "cache"
    load_words_at(1, words, cache)
    read = content_cache.read_entry

    def newer_load_first(path, key, decode):
        monkeypatch.setattr(content_cache, "read_entry", read)
        assert load_words_at(2, words, cache) == ["a", "b", "c"]
        assert not path.exists()
        return read(path, key, decode)

    monkeypatch.setattr(content_cache, "read_entry", newer_load_first)
    parses = []
    assert load_words_at(1, words, cache, lambda data: parses.append(1) or parse_words(data)) == [
        "a", "b", "c"
    ]
    assert parses == [1]
