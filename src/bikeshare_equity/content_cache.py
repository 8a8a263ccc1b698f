"""The one mechanism behind the store's caches of parsed input files.

A cache file is named by a key: a prefix naming the format and its version,
then the sha256 of the input file's bytes, so an edited input never meets a
file written for its old bytes. A cache file is written whole or not at all
(a temporary file, then ``os.replace``), and a location that cannot be
written is skipped: the cache only ever saves work, it never fails a load.
"""

from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path
from typing import BinaryIO, Callable


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
