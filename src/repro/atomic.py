"""The one way this package writes a file that must never be seen torn.

Cache entries, JSONL traces and validation verdicts are all written
through :func:`atomic_write`: the bytes go to a temp file in the
target's directory, which is then renamed over the target
(``os.replace`` is atomic on POSIX and Windows).  A crash or a raising
writer leaves either the old file or the new one, and no temp file.

A leaf module (standard library only), so :mod:`repro.runner`,
:mod:`repro.obs` and :mod:`repro.validate` can all import it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write"]


def atomic_write(path: Union[str, Path], data: bytes) -> Path:
    """Write *data* to *path* atomically, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
