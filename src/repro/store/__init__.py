"""Unified content-addressed storage layer.

One abstraction — :class:`~repro.store.backend.StoreBackend` — behind both
persistence paths of the engine: the evaluation cache
(:mod:`repro.engine.cache`, numbers as JSON-lines records) and the mapping
artifact store (:mod:`repro.engine.artifacts`, structures as pickles).
Three backends implement it:

``MemoryBackend``
    A plain in-process dictionary: tests and one-shot runs.

``ShardedJsonlBackend``
    One append-only JSON-lines file (the name is historical).  Appends
    are single ``O_APPEND`` writes under an advisory ``fcntl`` lock, so
    any number of processes can share one cache directory.

``PickleDirBackend``
    One pickle file per entry in per-namespace directories (the artifact
    layout), stored write-then-rename under advisory locks.

A shared directory is the way to share a store: point every process's
cache directory at one place and the locks keep concurrent writers from
losing or tearing records.

On top, :class:`~repro.store.janitor.StoreJanitor` provides age-based GC
and compaction, and every backend can snapshot itself as a
:class:`~repro.store.backend.StoreStats` for reports.
"""

from repro.store.backend import (
    CompactionReport,
    MemoryBackend,
    StoreBackend,
    StoreEntry,
    StoreStats,
)
from repro.store.janitor import JanitorReport, StoreJanitor
from repro.store.jsonl import ShardedJsonlBackend
from repro.store.locks import locked
from repro.store.pickledir import PickleDirBackend

__all__ = [
    "CompactionReport",
    "JanitorReport",
    "MemoryBackend",
    "PickleDirBackend",
    "ShardedJsonlBackend",
    "StoreBackend",
    "StoreEntry",
    "StoreJanitor",
    "StoreStats",
    "locked",
]
