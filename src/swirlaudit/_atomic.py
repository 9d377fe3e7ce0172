"""All-or-nothing file writes, shared by every writer of the package."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write UTF-8 text, or bytes if ``binary``, to a temporary file beside ``path``,
    then move it over ``path``.

    ``path`` holds either its old contents or the complete new ones, never a
    partial write.  If the body or the final move fails, the temporary file
    is removed and the error propagates.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
