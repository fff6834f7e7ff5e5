"""The one way the lab writes a file: whole or not at all.

`write_atomic` writes the bytes to a temp file next to the target, flushes
and fsyncs it, then renames it over the target with `os.replace`. A reader
sees either the old file or the new one, never a torn mix, and a run that
is killed mid-write leaves the old target (or none) in place. The temp
file is removed when any step raises; one left by a killed process is
named after its pid and is overwritten by the next write that reuses it.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace `path` with `data` (str is encoded as utf-8) in one rename."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, rows) -> None:
    """Rows through `csv.writer` (\\r\\n line ends), written atomically."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    write_atomic(path, buffer.getvalue())
