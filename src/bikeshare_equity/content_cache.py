"""The one mechanism behind the store's caches of parsed input files.

``load`` runs the whole protocol; each cache supplies its parse, encode and
decode. A cache file is named by a key: a prefix naming the format and its
version, then the sha256 of the input file's bytes, so an edited input never
meets a file written for its old bytes. A cache file is written whole or not
at all (a temporary file, then ``os.replace``), and a location that cannot be
written is skipped: the cache only ever saves work, it never fails a load.
Writing a file also deletes the files of the same cache's earlier versions,
which no load reads again (prune_older_versions).

Every cache file has one frame: a JSON header line (the key, the writer's
byte order, then the cache's own fields), the body's raw buffers, and a
big-endian CRC32 of everything before it. A file with any fault is a miss.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import sys
import uuid
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Callable, Sequence

logger = logging.getLogger(__name__)

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
    decode raises. The body is a read-only view of the file's bytes."""
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


def load(
    path: str | Path, cache_dir: str | Path | None, prefix: str, parse: Callable[[bytes], Any],
    encode: Callable[[Any], tuple[dict, Sequence]], decode: Callable[[dict, memoryview], Any],
    *, align: int = 1
) -> Any:
    """parse(the bytes of the file at path), or with cache_dir, decode of the
    cache file for those bytes (read_entry). On a miss, encode(result) is
    written (write_entry) under the key of the bytes parsed, should the file
    have changed since it was hashed, then prune_older_versions runs; a parse
    that raises writes nothing. An OSError reading the file propagates."""
    if cache_dir is None:
        return parse(Path(path).read_bytes())
    # A hit hashes a chunk at a time: the input's bytes and the cache file
    # are never in memory together.
    key = file_content_key(prefix, path)
    result = read_entry(Path(cache_dir) / key, key, decode)
    if result is None:
        data = Path(path).read_bytes()
        result = parse(data)
        key = content_key(prefix, data)
        del data
        header, body = encode(result)
        write_entry(Path(cache_dir) / key, key, header, body, align=align)
        prune_older_versions(Path(cache_dir), prefix)
    return result
