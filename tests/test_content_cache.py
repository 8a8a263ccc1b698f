"""The one cache-file frame: write_entry's file reads back through read_entry
as written, and every fault in the file reads as None (a miss)."""

import json
import sys
import zlib
from array import array

import numpy as np
import pytest

from bikeshare_equity import snapshot_store
from bikeshare_equity.content_cache import read_entry, write_entry
from bikeshare_equity.gbfs_client import DockingType
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
