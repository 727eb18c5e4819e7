"""Atomic, durable file replacement: the one way the library writes files."""

from __future__ import annotations

import contextlib
import os
import tempfile


@contextlib.contextmanager
def atomic_open(path: str):
    """Yield a binary handle whose contents replace ``path`` on exit.

    The handle is a ``mkstemp`` file next to ``path`` (no existing file
    is clobbered, no two writers share one), fsynced before
    :func:`os.replace`: readers see the old file or the whole new one,
    even after a crash. A failure at any step, the caller's writes
    included, leaves the old file and no temp file. Missing parent
    directories are created.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=f".{os.path.basename(path)}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: str, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text as UTF-8) via :func:`atomic_open`."""
    with atomic_open(path) as handle:
        handle.write(data.encode("utf-8") if isinstance(data, str) else data)
