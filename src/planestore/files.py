"""Writing output files."""

from __future__ import annotations

import os
import stat


def write_file(path: str, *chunks) -> None:
    """Write chunks (bytes-like, or str as UTF-8) to path as a new file.

    An existing regular file is unlinked first, not truncated: on ext4,
    truncating a file that holds written data makes the kernel flush it
    (the auto_da_alloc heuristic), about 0.08 s for 60 KB and 0.12 s for
    4 MB, while unlinking it costs next to nothing.  A symlink is kept,
    so the write goes through to its target.  Outputs are regenerable:
    a crash between the unlink and the write loses the old file.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
