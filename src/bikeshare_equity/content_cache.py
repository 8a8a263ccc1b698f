"""The one mechanism behind the store's caches of parsed input files.

``load`` runs the whole protocol; each cache supplies its parse, encode and
decode. A cache file is named by a key: a prefix naming the format and its
version, then the sha256 of the input file's bytes, so an edited input never
meets a file written for its old bytes, unless its size, inode, mtime and
ctime are all unchanged (see below). A cache file is written whole or not at
all (a temporary file, then ``os.replace``), and a location that cannot be
written is skipped: the cache only ever saves work, it never fails a load.
Writing a file also deletes the files of the same cache's earlier versions,
which no load reads again (prune_older_versions).

Every cache file has one frame: a JSON header line (the key, the writer's
byte order, then the cache's own fields), the body's raw buffers, and a
big-endian CRC32 of everything before it. A file with any fault is a miss.

An input is not hashed again while it is unchanged. After a load that
succeeds, a memo ``stat-v1-<st_dev>-<st_ino>`` beside the cache files holds
the input's device, inode, size, ``st_mtime_ns`` and ``st_ctime_ns``, the
sha256 of its bytes and ``hashed_at_ns``, the clock when the hash began. A
later load whose stat of the input matches all five takes the sha256 from
the memo, as long as the hash began RACY_WINDOW_NS or more after the later
of mtime and ctime (git's racy-git rule, Documentation/technical/racy-git.txt):
an edit in the same timestamp tick as the one before it moves neither, but
an edit that late moves them. Otherwise the input is hashed, and the memo
is rewritten only when the hash began after the window: a memo written
inside it could never be trusted, so the first load after the window writes
the memo that later loads trust. Setting a ctime back needs the system
clock; an input on a network filesystem whose clock runs more than the
window behind this machine's can be trusted too early.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import sys
import time
import uuid
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Callable, Sequence

logger = logging.getLogger(__name__)

# A memo is trusted only for a hash that began this long after the input's
# last change: well over a filesystem timestamp tick, and over the lag of the
# coarse clock that stamps files behind time.time_ns().
RACY_WINDOW_NS = 2_000_000_000

_SHA256 = re.compile(r"[0-9a-f]{64}")


def content_key(prefix: str, data: bytes) -> str:
    """``<prefix>-<sha256 of data, in hex>``."""
    # Imported here: only a cached load needs it, and harvest never loads.
    import hashlib

    return f"{prefix}-{hashlib.sha256(data).hexdigest()}"


def file_content_key(prefix: str, path: str | Path) -> str:
    """content_key of the file's bytes, hashed a chunk at a time so that the
    whole file is never in memory. Raises OSError when it cannot be read."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return f"{prefix}-{digest.hexdigest()}"


def write_atomically(path: Path, write: Callable[[BinaryIO], None]) -> None:
    """Call write with a new binary file, then move that file to path; on an
    OSError (a read-only or missing location, a full disk) nothing is left
    behind and path is unchanged."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "xb") as fh:
            write(fh)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()


def write_entry(path: Path, key: str, header: dict, body: Sequence, *, align: int = 1) -> None:
    """Write the cache file as write_atomically does: the header line (key,
    byte order, then header's fields), padded with spaces so the body starts
    at a multiple of align bytes, then the body buffers, then the CRC."""
    line = json.dumps({"key": key, "byteorder": sys.byteorder, **header}, separators=(",", ":"))
    line = line.encode("ascii") + b" " * (-(len(line) + 1) % align) + b"\n"
    crc = zlib.crc32(line)
    for buffer in body:
        crc = zlib.crc32(buffer, crc)
    write_atomically(path, lambda fh: fh.writelines((line, *body, crc.to_bytes(4, "big"))))


def read_entry(path: Path, key: str, decode: Callable[[dict, memoryview], Any]) -> Any:
    """decode(header, body) of the cache file at path, or None (a miss) when
    the file is missing or unreadable, its CRC does not match, its header is
    not an object written for this key on a machine of this byte order, or
    decode raises. The body is a read-only view of the file's bytes. A file
    that is there but unusable is logged (debug) with the reason."""
    try:
        blob = path.read_bytes()
        view = memoryview(blob)
        if zlib.crc32(view[:-4]) != int.from_bytes(view[-4:], "big"):
            raise ValueError("CRC mismatch")
        end = blob.index(b"\n")
        header = json.loads(blob[:end])
        if header["key"] != key or header["byteorder"] != sys.byteorder:
            raise ValueError("written for another key or byte order")
        return decode(header, view[end + 1 : -4])
    except FileNotFoundError:  # the plain miss, which load logs
        return None
    except Exception:  # whatever a bad file raises, it is only a miss
        logger.debug("cache file %s is unusable", path, exc_info=True)
        return None


def prune_older_versions(cache_dir: Path, prefix: str) -> None:
    """Delete cache_dir's files of this cache's earlier versions: for a
    prefix ``<name>-v<N>``, each ``<name>-v<k>-*`` with k < N. A failed
    listing or delete is ignored; a reader whose file it deletes misses."""
    name, version = re.fullmatch(r"(.*)-v([0-9]+)", prefix).groups()
    older = re.compile(re.escape(name) + r"-v([0-9]+)-")
    with contextlib.suppress(OSError), os.scandir(cache_dir) as entries:
        for entry in entries:
            match = older.match(entry.name)
            if match and int(match[1]) < int(version):
                with contextlib.suppress(OSError):
                    os.unlink(entry.path)


def _stat_fields(st: os.stat_result) -> dict:
    return {"dev": st.st_dev, "ino": st.st_ino, "size": st.st_size,
            "mtime_ns": st.st_mtime_ns, "ctime_ns": st.st_ctime_ns}


def _after_window(hashed_at: int, st: os.stat_result) -> bool:
    """Whether a hash that began at hashed_at began RACY_WINDOW_NS or more
    after the later of the file's mtime and ctime."""
    return hashed_at >= max(st.st_mtime_ns, st.st_ctime_ns) + RACY_WINDOW_NS


def _trusted_sha256(memo_path: Path, st: os.stat_result) -> str | None:
    """The sha256 in the memo at memo_path, if it was written for a file of
    exactly this stat and its hash began RACY_WINDOW_NS or more after the
    later of the file's mtime and ctime; else None (the file is hashed)."""
    try:
        memo = json.loads(memo_path.read_bytes())
        hashed_at, sha256 = memo["hashed_at_ns"], memo["sha256"]
    except (OSError, ValueError, RecursionError, TypeError, KeyError):
        return None
    trusted = (
        memo == {**_stat_fields(st), "hashed_at_ns": hashed_at, "sha256": sha256}
        and type(hashed_at) is int
        and _after_window(hashed_at, st)
        and type(sha256) is str
        and _SHA256.fullmatch(sha256)
    )
    return sha256 if trusted else None


def load(
    path: str | Path, cache_dir: str | Path | None, prefix: str, parse: Callable[[bytes], Any],
    encode: Callable[[Any], tuple[dict, Sequence]], decode: Callable[[dict, memoryview], Any],
    *, align: int = 1
) -> Any:
    """parse(the bytes of the file at path), or with cache_dir, decode of the
    cache file for those bytes (read_entry). The key comes from the input's
    memo when it is trusted, else from hashing the file. On a miss,
    encode(result) is written (write_entry) under the key of the bytes
    parsed, should the file have changed since it was hashed, then
    prune_older_versions runs. Once the result is known, the memo is
    rewritten unless it was trusted and holds that key's sha256, or the hash
    began inside the window (such a memo is never trusted); a parse that
    raises writes nothing. Each cached load logs one debug record: the
    prefix, the path, hit or miss, and whether the memo was trusted. An
    OSError reading the file propagates."""
    if cache_dir is None:
        return parse(Path(path).read_bytes())
    cache_dir = Path(cache_dir)
    hashed_at = time.time_ns()  # before any read of the input
    st = os.stat(path)
    memo_path = cache_dir / f"stat-v1-{st.st_dev}-{st.st_ino}"
    recorded = _trusted_sha256(memo_path, st)
    # A hash reads a chunk at a time: the input's bytes and the cache file
    # are never in memory together.
    key = f"{prefix}-{recorded}" if recorded else file_content_key(prefix, path)
    result = read_entry(cache_dir / key, key, decode)
    hit = result is not None
    if not hit:
        data = Path(path).read_bytes()
        result = parse(data)
        key = content_key(prefix, data)
        del data
        header, body = encode(result)
        write_entry(cache_dir / key, key, header, body, align=align)
        prune_older_versions(cache_dir, prefix)
    sha256 = key[len(prefix) + 1:]
    if sha256 != recorded and _after_window(hashed_at, st):
        memo = json.dumps({**_stat_fields(st), "hashed_at_ns": hashed_at, "sha256": sha256})
        write_atomically(memo_path, lambda fh: fh.write(memo.encode("ascii")))
    logger.debug(
        "%s %s: %s, %s", prefix, path, "hit" if hit else "miss",
        "memo trusted" if recorded else "hashed",
    )
    return result
