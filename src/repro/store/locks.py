"""Advisory file locking for multi-process store access.

POSIX ``fcntl.flock`` locks guard every mutation of a shared store
directory: JSON-lines appends, write-then-rename stores and compaction
rewrites.  Locks are taken on a dedicated ``*.lock`` sibling of
the data path — never on the data file itself — so compaction can atomically
``os.replace`` the data file while the lock identity stays stable.

On platforms without ``fcntl`` (Windows) the lock degrades to a no-op;
single-process use remains correct there and multi-process sharing is a
documented POSIX-only feature.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator, Union

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: Suffix appended to a data path to form its lock-file path.
LOCK_SUFFIX = ".lock"


def lock_path_for(data_path: Union[str, Path]) -> Path:
    """The lock file guarding ``data_path`` (a sibling, never the file itself)."""
    data_path = Path(data_path)
    return data_path.with_name(data_path.name + LOCK_SUFFIX)


@contextlib.contextmanager
def locked(data_path: Union[str, Path], shared: bool = False) -> Iterator[None]:
    """Hold an advisory lock guarding ``data_path`` for the ``with`` body.

    The lock file is created on demand and left in place (removing it
    would race with other lockers).  ``shared=True`` takes a read lock;
    the default is exclusive.
    """
    if fcntl is None:  # pragma: no cover - POSIX everywhere we run
        yield
        return
    path = lock_path_for(data_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(descriptor, fcntl.LOCK_UN)
    finally:
        os.close(descriptor)
