"""Atomic replacement of checkpoint, dataset and report files."""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Write through a sibling temporary file that replaces ``path`` on success.

    Readers see either the old file or the complete new one. If the block
    raises, ``path`` is left as it was and the temporary file is removed.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
