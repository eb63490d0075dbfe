"""Pickle-per-entry directory backend.

The value domain is arbitrary picklables — one file per entry, which is
the right shape for the mapping pipeline's large structured artifacts
(schedules, profiles, configuration contexts).

Layout
------
``root`` holds one directory per namespace and one file per entry::

    <root>/<ns>/<prefix>.pkl

``prefix`` is the first :attr:`key_prefix_length` characters of the key,
which keeps file names short.  A directory written by an older version
configured with several shards keeps its ``<ns>/sNN/`` subdirectories on
disk, but they are not read: their entries are recomputed once, and
because keys are content hashes the recomputed values are the same.

Concurrency
-----------
Stores are write-then-rename: every writer pickles into its own temp file
and atomically replaces the final name, under the namespace directory's
advisory lock.  Reads take no lock — a rename is atomic, so a reader sees
either the old complete file or the new complete file.  A disk hit
touches the file's mtime, which is the cross-process last-access signal
age-based GC honours ("recently read" can be observed by a janitor
running in a different process).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Tuple, Union

from repro.store.backend import CompactionReport, StoreBackend, StoreEntry, StoreStats, _Counters
from repro.store.locks import locked

#: Default file-name prefix length: 32 hex digits (128 bits) keeps paths
#: short while making collisions implausible.
DEFAULT_KEY_PREFIX_LENGTH = 32

#: Hidden stem the advisory lock of a directory is derived from; the lock
#: file lives *inside* the directory (``<dir>/.dir.lock``) so sibling
#: listings of the namespace root stay clean.
_DIR_LOCK_STEM = ".dir"


def _dir_lock_target(directory: Path) -> Path:
    return directory / _DIR_LOCK_STEM


class PickleDirBackend(StoreBackend):
    """Pickle files in namespace directories.

    Parameters
    ----------
    root:
        Directory holding the namespace subdirectories.
    key_prefix_length:
        Key characters used for file names.
    clock:
        Time source for access stamps (injectable for GC tests).
    """

    name = "pickle"

    def __init__(
        self,
        root: Union[str, Path],
        key_prefix_length: int = DEFAULT_KEY_PREFIX_LENGTH,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.key_prefix_length = key_prefix_length
        self._clock = clock
        self.counters = _Counters()

    #: A ``*.tmp`` file younger than this may belong to a live writer;
    #: older ones are orphans of interrupted runs and are swept.
    _TMP_ORPHAN_AGE_SECONDS = 60.0

    def path_for(self, namespace: str, key: str) -> Path:
        """Where ``(namespace, key)`` is stored."""
        return self.root / namespace / f"{key[: self.key_prefix_length]}.pkl"

    # ------------------------------------------------------------------
    # Protocol: get / put / delete / scan / stats
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(
            1 for directory in self._namespace_dirs() for _ in self._entry_files(directory)
        )

    def contains(self, namespace: str, key: str) -> bool:
        """Availability check that counts neither a hit nor a miss."""
        return self.path_for(namespace, key).exists()

    def get(self, namespace: str, key: str) -> Tuple[bool, Any]:
        path = self.path_for(namespace, key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            # Absent, or removed by a concurrent GC eviction: a plain miss.
            self.counters.misses += 1
            return False, None
        except Exception:
            # Whatever the bytes make pickle raise (UnpicklingError,
            # EOFError, ValueError, ...), the entry is unreadable.
            self.counters.corrupt += 1
            self.counters.misses += 1
            return False, None
        now = self._clock()
        try:
            os.utime(path, times=(now, now))  # last-access stamp for GC
        except OSError:
            pass
        self.counters.hits += 1
        return True, value

    def put(self, namespace: str, key: str, value: Any) -> None:
        path = self.path_for(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so neither an interrupted run nor two writers
        # racing on the same key ever leave a truncated file under the
        # final name (mkstemp gives every writer its own temp file).
        with locked(_dir_lock_target(path.parent)):
            descriptor, temporary = tempfile.mkstemp(
                prefix=f"{path.name}.", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(temporary, path)
                now = self._clock()
                try:
                    os.utime(path, times=(now, now))  # write stamp for GC ages
                except OSError:
                    pass
            except BaseException:
                try:
                    os.unlink(temporary)
                except OSError:
                    pass
                raise
        self.counters.stores += 1

    def put_many(self, namespace: str, records) -> int:
        """Batch store that skips keys already on disk.

        Keys are content hashes, so an existing entry already holds the
        value being offered — skipping saves the pickle+rename work when
        a second writer re-offers a whole wave.  Returns the number of
        records actually written.
        """
        stored = 0
        for key, value in records.items():
            if self.contains(namespace, key):
                continue
            self.put(namespace, key, value)
            stored += 1
        return stored

    def delete(self, namespace: str, key: str) -> bool:
        try:
            self.path_for(namespace, key).unlink()
        except OSError:
            return False
        self.counters.evicted += 1
        return True

    def _namespace_dirs(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(child for child in self.root.iterdir() if child.is_dir())

    def _entry_files(self, namespace_dir: Path) -> Iterator[Path]:
        """Every ``.pkl`` file of one namespace, in name order."""
        for path in sorted(namespace_dir.glob("*.pkl")):
            if path.is_file():
                yield path

    def scan(self, namespace: Optional[str] = None) -> Iterator[StoreEntry]:
        now = self._clock()
        for namespace_dir in self._namespace_dirs():
            if namespace is not None and namespace_dir.name != namespace:
                continue
            for path in self._entry_files(namespace_dir):
                try:
                    status = path.stat()
                except OSError:
                    continue
                yield StoreEntry(
                    namespace=namespace_dir.name,
                    key=path.stem,
                    size_bytes=status.st_size,
                    age_seconds=max(0.0, now - status.st_mtime),
                )

    def stats(self) -> StoreStats:
        disk_files = 0
        disk_bytes = 0
        for namespace_dir in self._namespace_dirs():
            for path in self._entry_files(namespace_dir):
                disk_files += 1
                try:
                    disk_bytes += path.stat().st_size
                except OSError:
                    pass
        return StoreStats(
            backend=self.name,
            entries=disk_files,
            disk_files=disk_files,
            disk_bytes=disk_bytes,
            hits=self.counters.hits,
            misses=self.counters.misses,
            stores=self.counters.stores,
            corrupt=self.counters.corrupt,
            evicted=self.counters.evicted,
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> CompactionReport:
        """Drop orphaned temp files and undecodable pickles.

        Each namespace is swept under its directory lock, which writers
        hold during write-then-rename, so no writer is mid-``put`` where
        the sweep looks.  Temp files are additionally only removed once
        they are old enough to be orphans.
        """
        report = CompactionReport()
        for namespace_dir in self._namespace_dirs():
            with locked(_dir_lock_target(namespace_dir)):
                now = self._clock()
                for stray in namespace_dir.glob("*.tmp"):
                    try:
                        status = stray.stat()
                        if now - status.st_mtime < self._TMP_ORPHAN_AGE_SECONDS:
                            continue  # possibly a live writer's in-flight file
                        report.reclaimed_bytes += status.st_size
                        stray.unlink()
                    except OSError:
                        pass
                for path in list(self._entry_files(namespace_dir)):
                    try:
                        with path.open("rb") as handle:
                            pickle.load(handle)
                    except Exception:  # undecodable, as in get()
                        report.dropped_corrupt += 1
                        report.reclaimed_bytes += path.stat().st_size if path.exists() else 0
                        path.unlink(missing_ok=True)
                        continue
                    report.entries_kept += 1
            report.shards_rewritten += 1
        return report
