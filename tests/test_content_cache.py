"""The one cache-file frame: write_entry's file reads back through read_entry
as written, and every fault in the file reads as None (a miss); and the one
cached-load protocol, load, on top of it."""

import builtins
import hashlib
import io
import json
import logging
import os
import shutil
import sys
import time
import zlib
from array import array
from pathlib import Path

import numpy as np
import pytest

from bikeshare_equity import content_cache, geo, join_aggregate, snapshot_store
from bikeshare_equity.cli import main
from bikeshare_equity.content_cache import (
    content_key,
    file_content_key,
    load,
    read_entry,
    write_entry,
)
from bikeshare_equity.snapshot_store import DockingType
from helpers import (
    build_synthetic_city,
    city_inputs,
    memo_name,
    memos,
    memos_of,
    observation,
    observations_of,
)
from test_cli import analyze_argv

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
    """A snapshot cache file is the shared frame around this layout, byte
    for byte: the header holds n, the run-length columns, the ids' separator
    (U+0000, which no id holds) and the id text's length in bytes; the body
    the lat and lon columns, then the ids joined by the separator."""
    store = tmp_path / "store"
    snapshot_store.append_snapshot(observations_of([
        observation("sys", "e1", 45.5, -122.25, DockingType.FREE, 7),
        observation("sys", "e,2", -45.0, 179.5, DockingType.FREE, 7),
        observation("dock", "s1", 0.0, -0.0, DockingType.DOCKED, 9),
    ]), store)
    snapshot_store.load_snapshot(store, cache_dir=tmp_path / "cache")
    (snapshot,) = store.glob("snapshot_*.csv")
    (path,) = [p for p in (tmp_path / "cache").iterdir() if p.name != memo_name(snapshot)]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == sorted(
        [path.name, memo_name(snapshot)]
    )
    assert path.name.startswith("snapshot-v3-")
    line = json.dumps({
        "key": path.name, "byteorder": sys.byteorder, "n": 3,
        "system_id": [["sys", 2], ["dock", 1]], "separator": "\0", "id_bytes": 9,
        "docking_type": [["free", 2], ["docked", 1]], "observed_at": [[7, 2], [9, 1]],
    }, separators=(",", ":")).encode("ascii") + b"\n"
    payload = (
        line + array("d", [45.5, -45.0, 0.0, -122.25, 179.5, -0.0]).tobytes() + b"e1\0e,2\0s1"
    )
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
    expected = sorted([content_key("words-v1", b"a,b,c"), memo_name(words)])
    assert sorted(p.name for p in cache.iterdir()) == expected
    assert load_words(words, cache, parse=pytest.fail) == ["a", "b", "c"]
    assert sorted(p.name for p in cache.iterdir()) == expected


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
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [*keep, "words-v1-dir", current, memo_name(words)]
    )
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


# ---------------------------------------------------------------------------
# The stat memo: an unchanged input is not hashed again
# ---------------------------------------------------------------------------


@pytest.fixture
def hashes(monkeypatch):
    """One entry per hash of an input file."""
    calls = []
    hash_file = content_cache.file_content_key
    monkeypatch.setattr(
        content_cache, "file_content_key",
        lambda prefix, path: calls.append(1) or hash_file(prefix, path),
    )
    return calls


@pytest.fixture
def no_window(monkeypatch):
    """Trust a memo as soon as its hash began after the file's last change."""
    monkeypatch.setattr(content_cache, "RACY_WINDOW_NS", 0)


def edit_memo(path, edit):
    memo = json.loads(path.read_bytes())
    edit(memo)
    path.write_text(json.dumps(memo))


def test_memo_holds_the_stat_and_the_sha256(tmp_path, words):
    cache = tmp_path / "cache"
    before = time.time_ns()
    load_words(words, cache)
    after = time.time_ns()
    st = os.stat(words)
    memo = json.loads((cache / memo_name(words)).read_bytes())
    assert memo == {
        "dev": st.st_dev, "ino": st.st_ino, "size": 5,
        "mtime_ns": st.st_mtime_ns, "ctime_ns": st.st_ctime_ns,
        "hashed_at_ns": memo["hashed_at_ns"], "sha256": hashlib.sha256(b"a,b,c").hexdigest(),
    }
    assert before <= memo["hashed_at_ns"] <= after


@pytest.mark.parametrize("late, trusted", [(-1, False), (0, True)])
def test_memo_is_trusted_from_the_window_on(tmp_path, words, hashes, monkeypatch, late, trusted):
    """The memo is trusted once its hash began RACY_WINDOW_NS after the later
    of the file's mtime and ctime, and not a nanosecond before."""
    st = os.stat(words)
    clock = max(st.st_mtime_ns, st.st_ctime_ns) + content_cache.RACY_WINDOW_NS + late
    monkeypatch.setattr(content_cache.time, "time_ns", lambda: clock)
    load_words(words, tmp_path / "cache")
    assert json.loads((tmp_path / "cache" / memo_name(words)).read_bytes())["hashed_at_ns"] == clock
    assert load_words(words, tmp_path / "cache", parse=pytest.fail) == ["a", "b", "c"]
    assert hashes == ([1] if trusted else [1, 1])


def test_memo_written_inside_the_window_is_trusted_on_a_later_load(tmp_path, words, hashes,
                                                                   monkeypatch):
    """Each load inside the window hashes and rewrites the memo, so the first
    load after it leaves a memo that the next one trusts."""
    st = os.stat(words)
    window = max(st.st_mtime_ns, st.st_ctime_ns) + content_cache.RACY_WINDOW_NS
    for clock, hashed in [(window - 2, [1]), (window - 1, [1, 1]), (window, [1, 1, 1]),
                          (window + 1, [1, 1, 1])]:
        monkeypatch.setattr(content_cache.time, "time_ns", lambda: clock)
        assert load_words(words, tmp_path / "cache") == ["a", "b", "c"]
        assert hashes == hashed
    memo = json.loads((tmp_path / "cache" / memo_name(words)).read_bytes())
    assert memo["hashed_at_ns"] == window


def test_same_size_edit_inside_the_window_is_rehashed(tmp_path, words, hashes):
    cache = tmp_path / "cache"
    load_words(words, cache)
    words.write_bytes(b"x,y,z")
    assert load_words(words, cache) == load_words(words, None) == ["x", "y", "z"]
    assert hashes == [1, 1]
    # An edit in the timestamp tick of the hash moves neither mtime nor
    # ctime: the memo then matches the file's stat, as this one is made to,
    # and only the window keeps its stale sha256 from being trusted.
    words.write_bytes(b"a,b,c")
    load_words(words, cache)
    words.write_bytes(b"x,y,z")
    st = os.stat(words)
    window = max(st.st_mtime_ns, st.st_ctime_ns) + content_cache.RACY_WINDOW_NS

    def same_tick(hashed_at):
        return lambda memo: memo.update(
            mtime_ns=st.st_mtime_ns, ctime_ns=st.st_ctime_ns, hashed_at_ns=hashed_at
        )

    hashes.clear()
    edit_memo(cache / memo_name(words), same_tick(window - 1))
    assert load_words(words, cache) == ["x", "y", "z"]
    assert hashes == [1]
    # The guarantee this weakens: a memo that matches and began after the
    # window is trusted, and the bytes it was written for are what loads.
    words.write_bytes(b"a,b,c")
    load_words(words, cache)
    words.write_bytes(b"x,y,z")
    st = os.stat(words)
    window = max(st.st_mtime_ns, st.st_ctime_ns) + content_cache.RACY_WINDOW_NS
    edit_memo(cache / memo_name(words), same_tick(window))
    hashes.clear()
    assert load_words(words, cache) == ["a", "b", "c"]
    assert hashes == []


def test_edit_whose_mtime_is_put_back_is_rehashed(tmp_path, words, hashes, no_window,
                                                    monkeypatch):
    cache = tmp_path / "cache"
    load_words(words, cache)
    assert load_words(words, cache, parse=pytest.fail) == ["a", "b", "c"]
    assert hashes == [1]
    st = os.stat(words)
    # The edit and the utime set ctime to the clock's current timestamp
    # tick, so edit until it has left the tick of the first write.
    for _ in range(300):
        words.write_bytes(b"x,y,z")
        os.utime(words, ns=(st.st_atime_ns, st.st_mtime_ns))
        if os.stat(words).st_ctime_ns != st.st_ctime_ns:
            break
        time.sleep(0.01)
    now = os.stat(words)
    assert (now.st_ino, now.st_size, now.st_mtime_ns) == (st.st_ino, st.st_size, st.st_mtime_ns)
    assert now.st_ctime_ns != st.st_ctime_ns
    # Even a memo dated after the window of the new ctime (a clock set back
    # since the edit) is not trusted: it was written for the old ctime.
    memo = cache / memo_name(words)
    edit_memo(memo, lambda m: m.update(hashed_at_ns=now.st_ctime_ns + 10**9))
    with monkeypatch.context() as patch:
        patch.setattr(content_cache, "RACY_WINDOW_NS", 10**9)
        assert load_words(words, cache) == load_words(words, None) == ["x", "y", "z"]
    assert hashes == [1, 1]


def test_replaced_file_is_rehashed(tmp_path, words, hashes, no_window):
    cache = tmp_path / "cache"
    load_words(words, cache)
    assert load_words(words, cache, parse=pytest.fail) == ["a", "b", "c"]
    old_memo = memo_name(words)
    new = tmp_path / "new.txt"
    new.write_bytes(b"x,y,z")
    os.replace(new, words)
    assert memo_name(words) != old_memo
    assert load_words(words, cache) == load_words(words, None) == ["x", "y", "z"]
    assert hashes == [1, 1]
    # The replaced inode's memo is left behind; it names no file now.
    assert memos(cache) == sorted([old_memo, memo_name(words)])


MEMO_SPOILERS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "empty": lambda p: p.write_bytes(b""),
    "not JSON": lambda p: p.write_bytes(b"\xff\xfe not JSON"),
    "a list": lambda p: p.write_text(json.dumps(list(json.loads(p.read_bytes()).values()))),
    "no sha256": lambda p: edit_memo(p, lambda m: m.pop("sha256")),
    "sha256 not hex": lambda p: edit_memo(p, lambda m: m.update(sha256=m["sha256"].upper())),
    "sha256 a path": lambda p: edit_memo(p, lambda m: m.update(sha256="../" + m["sha256"][3:])),
    "sha256 not a str": lambda p: edit_memo(p, lambda m: m.update(sha256=[m["sha256"]])),
    "hashed_at not an int": lambda p: edit_memo(
        p, lambda m: m.update(hashed_at_ns=str(m["hashed_at_ns"]))),
    "an extra field": lambda p: edit_memo(p, lambda m: m.update(note=1)),
    "size off by one": lambda p: edit_memo(p, lambda m: m.update(size=m["size"] + 1)),
    "a directory": lambda p: (p.unlink(), p.mkdir()),
}


@pytest.mark.parametrize("spoil", sorted(MEMO_SPOILERS))
def test_spoiled_memo_is_rehashed_and_rewritten(tmp_path, words, hashes, no_window, spoil):
    cache = tmp_path / "cache"
    load_words(words, cache)
    assert load_words(words, cache, parse=pytest.fail) == ["a", "b", "c"]
    memo = cache / memo_name(words)
    good = memo.read_bytes()
    MEMO_SPOILERS[spoil](memo)
    assert load_words(words, cache, parse=pytest.fail) == load_words(words, None)
    assert hashes == [1, 1]
    assert memos(cache) == [memo.name]
    if spoil == "a directory":
        # Nothing replaces a directory, and no temporary file is left.
        assert memo.is_dir() and len(list(cache.iterdir())) == 2
        return
    # The hash rewrote the memo, so the next load trusts it.
    assert json.loads(memo.read_bytes())["sha256"] == json.loads(good)["sha256"]
    assert load_words(words, cache, parse=pytest.fail) == ["a", "b", "c"]
    assert hashes == [1, 1]


@pytest.mark.parametrize("same_tick", [False, True])
def test_another_files_memo_is_not_trusted(tmp_path, words, hashes, no_window, same_tick):
    cache = tmp_path / "cache"
    other = tmp_path / "other.txt"
    other.write_bytes(b"x,y,z")
    load_words(other, cache)
    load_words(words, cache)
    memo = cache / memo_name(words)
    shutil.copyfile(cache / memo_name(other), memo)
    if same_tick:
        # As if both files had been written in one timestamp tick: only the
        # device and inode tell the memos apart.
        st = os.stat(words)
        edit_memo(memo, lambda m: m.update(mtime_ns=st.st_mtime_ns, ctime_ns=st.st_ctime_ns))
    hashes.clear()
    assert load_words(words, cache) == load_words(words, None) == ["a", "b", "c"]
    assert hashes == [1]


def refuse_writes(file, mode="r", *args, **kwargs):
    if set(mode) & set("wxa+"):
        raise PermissionError("read-only file system")
    return open(file, mode, *args, **kwargs)


def test_cache_that_cannot_be_written_hashes_every_load(tmp_path, words, hashes, no_window,
                                                         monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    # Shadows the built-in open in content_cache, as a read-only cache
    # directory would, whoever the user is.
    monkeypatch.setattr(content_cache, "open", refuse_writes, raising=False)
    for _ in range(3):
        assert load_words(words, cache) == load_words(words, None)
    assert hashes == [1, 1, 1]
    assert list(cache.iterdir()) == []


def test_read_only_cache_directory_hashes_every_load(tmp_path, words, hashes, no_window):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o555)
    try:
        if os.access(cache, os.W_OK):
            pytest.skip("this user writes to a read-only directory (the superuser does)")
        for _ in range(3):
            assert load_words(words, cache) == load_words(words, None)
        assert hashes == [1, 1, 1]
        assert list(cache.iterdir()) == []
    finally:
        cache.chmod(0o755)


def test_trusted_hit_never_opens_its_input(tmp_path, words, no_window, monkeypatch):
    cache = tmp_path / "cache"
    load_words(words, cache)
    opened = []
    real_open = io.open

    def watch(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(words):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", watch)
    monkeypatch.setattr(io, "open", watch)
    assert load_words(words, cache, parse=pytest.fail) == ["a", "b", "c"]
    assert opened == []
    # The watch sees the input opened: a memo not yet trusted is hashed.
    monkeypatch.setattr(content_cache, "RACY_WINDOW_NS", 10**18)
    assert load_words(words, cache, parse=pytest.fail) == ["a", "b", "c"]
    assert len(opened) == 1


def test_failed_load_after_a_trusted_memo_writes_nothing(tmp_path, words, no_window):
    cache = tmp_path / "cache"
    load_words(words, cache)
    before = {p.name: p.read_bytes() for p in cache.iterdir()}
    words.write_bytes(b"\xff,b,c")

    with pytest.raises(UnicodeDecodeError):
        load_words(words, cache)
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == before


# ---------------------------------------------------------------------------
# One debug record per cached load
# ---------------------------------------------------------------------------


def test_second_analyze_on_unchanged_inputs_logs_three_trusted_hits(tmp_path, caplog,
                                                                    monkeypatch, no_window):
    city = build_synthetic_city(tmp_path / "city", n_cols=4, n_rows=3)
    snapshot, boundaries, demographics = city_inputs(city)
    expected = [
        (f"snapshot-v{snapshot_store._CACHE_VERSION}", snapshot),
        (f"tract-index-v{geo._CACHE_VERSION}", boundaries),
        (f"demographics-v{join_aggregate._CACHE_VERSION}", demographics),
    ]

    def loads():
        records = [r for r in caplog.records if r.name == content_cache.logger.name]
        assert all(r.levelno == logging.DEBUG for r in records)
        caplog.clear()
        return [r.getMessage() for r in records]

    with caplog.at_level(logging.DEBUG, logger=content_cache.logger.name):
        assert main(analyze_argv(city, tmp_path / "first")) == 0
        assert loads() == [f"{prefix} {path}: miss, hashed" for prefix, path in expected]
        for module, name in [(snapshot_store, "_parse_csv"), (geo, "_parse_boundaries"),
                             (join_aggregate, "_parse_demographics")]:
            monkeypatch.setattr(module, name, pytest.fail)
        monkeypatch.setattr(content_cache, "file_content_key", pytest.fail)
        assert main(analyze_argv(city, tmp_path / "second")) == 0
        assert loads() == [f"{prefix} {path}: hit, memo trusted" for prefix, path in expected]
    for name in ("table1.csv", "table2.csv", "run_manifest.json"):
        assert (tmp_path / "second" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()
    assert memos(city["store"] / "cache") == memos_of(*city_inputs(city))
