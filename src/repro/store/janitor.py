"""Garbage collection and compaction over any store backend.

The stores only grow: every new kernel, architecture or calibration adds
records that are never superseded in place (keys are content hashes).
The janitor is the counterweight — an explicit maintenance pass that

1. evicts entries whose *age* (seconds since they were last written or
   read) exceeds a configured bound, and
2. compacts the physical layout (rewrites JSONL files dropping
   superseded and corrupt lines, removes corrupt pickles and temp
   strays).

Because a hit refreshes an entry's access stamp in every backend, an
entry that was just read is never evicted regardless of when it was
written — the LRU-flavoured invariant the property tests pin down.

Scope of that guarantee: :class:`~repro.store.pickledir.PickleDirBackend`
stamps reads on the file itself (mtime), so it holds across processes;
the memory and JSONL backends track reads in process memory, so their
guarantee covers the janitor running in the process that did the reading
— which is exactly the engine's usage (the post-campaign janitor pass
runs after its own campaign's reads).  Run a standalone JSONL janitor
only against directories no other campaign is actively reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.store.backend import CompactionReport, StoreBackend


@dataclass
class JanitorReport:
    """Outcome of one :meth:`StoreJanitor.sweep`."""

    scanned: int = 0
    evicted: int = 0
    evicted_bytes: int = 0
    compaction: CompactionReport = field(default_factory=CompactionReport)

    @property
    def kept(self) -> int:
        return self.scanned - self.evicted


class StoreJanitor:
    """Age-based GC plus compaction for one backend.

    Parameters
    ----------
    backend:
        Any :class:`~repro.store.backend.StoreBackend`.
    max_age_seconds:
        Entries older than this (since last write *or* read) are evicted
        by :meth:`sweep`; ``None`` disables eviction and leaves only
        compaction.
    """

    def __init__(self, backend: StoreBackend, max_age_seconds: Optional[float] = None) -> None:
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ValueError(f"max_age_seconds must be non-negative, got {max_age_seconds}")
        self.backend = backend
        self.max_age_seconds = max_age_seconds

    def sweep(self, compact: bool = True) -> JanitorReport:
        """One maintenance pass: evict over-age entries, then compact.

        Eviction consults the backend's own age accounting (record
        timestamps, file mtimes refreshed on read, in-process access
        times), so a key read just before the sweep always survives it.

        A sweep that evicted anything always compacts, regardless of
        ``compact``: JSONL deletion is a tombstone until its file is
        rewritten, so skipping compaction there would report evictions
        that resurrect on the next open.  ``compact=False`` only skips
        the pure layout-normalisation pass when nothing was evicted.
        """
        report = JanitorReport()
        entries = list(self.backend.scan())
        report.scanned = len(entries)
        if self.max_age_seconds is not None:
            for entry in entries:
                if entry.age_seconds > self.max_age_seconds:
                    if self.backend.delete(entry.namespace, entry.key):
                        report.evicted += 1
                        report.evicted_bytes += entry.size_bytes
        if compact or report.evicted:
            report.compaction = self.backend.compact()
        return report
