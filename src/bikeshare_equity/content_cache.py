"""The one mechanism behind the store's caches of parsed input files.

A cache file is named by a key: a prefix naming the format and its version,
then the sha256 of the input file's bytes, so an edited input never meets a
file written for its old bytes. A cache file is written whole or not at all
(a temporary file, then ``os.replace``), and a location that cannot be
written is skipped: the cache only ever saves work, it never fails a load.

Every cache file has one frame: a JSON header line (the key, the writer's
byte order, then the cache's own fields), the body's raw buffers, and a
big-endian CRC32 of everything before it. A file with any fault is a miss.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
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
