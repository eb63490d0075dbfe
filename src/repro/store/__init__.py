"""Unified content-addressed storage layer.

One abstraction — :class:`~repro.store.backend.StoreBackend` — behind both
persistence paths of the engine: the evaluation cache
(:mod:`repro.engine.cache`, numbers as JSON-lines records) and the mapping
artifact store (:mod:`repro.engine.artifacts`, structures as pickles).
Three backends implement it:

``MemoryBackend``
    A plain in-process dictionary: tests, one-shot runs, and the in-memory
    front of the persistent stores.

``ShardedJsonlBackend``
    One append-only JSON-lines file (the name is historical).  Appends
    are single ``O_APPEND`` writes under an advisory ``fcntl`` lock, so
    any number of processes can share one cache directory.

``PickleDirBackend``
    One pickle file per entry in per-namespace directories (the artifact
    layout), stored write-then-rename under advisory locks.

Two composable backends extend the reach of the local three:

``RemoteBackend``
    The store protocol over HTTP against a ``repro.service`` store
    server — keep-alive connections, batch ``mget``/``mput``,
    retry/backoff and an offline-tolerant degraded mode.

``TieredBackend``
    A read-through :class:`MemoryBackend` front with write-behind
    batching over any backend (typically a remote one).

:func:`~repro.store.remote.open_store_backend` builds the remote backend
for a service URL, tiered or not; the engine and the flow open the store
that processes or machines share through it.

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
from repro.store.remote import RemoteBackend, StoreServiceError, open_store_backend
from repro.store.tiered import TieredBackend

__all__ = [
    "CompactionReport",
    "JanitorReport",
    "MemoryBackend",
    "PickleDirBackend",
    "RemoteBackend",
    "ShardedJsonlBackend",
    "StoreBackend",
    "StoreEntry",
    "StoreJanitor",
    "StoreServiceError",
    "StoreStats",
    "TieredBackend",
    "locked",
    "open_store_backend",
]
