"""The storage protocol, its snapshot types and the in-memory backend.

A backend is a namespaced key/value store with content-hash keys.  The
protocol is deliberately small — ``get``/``put``/``delete``/``scan``/
``stats``/``compact`` — so the evaluation cache and the artifact store
can both sit behind it.  Because keys are content hashes, values are
immutable: a ``put`` under an existing key stores the same value again,
which is why duplicate records are "superseded" rather than conflicting
and why compaction may drop all but one of them.

Value domains differ per backend and are part of each backend's contract:
:class:`MemoryBackend` stores arbitrary objects,
:class:`~repro.store.jsonl.ShardedJsonlBackend` stores flat JSON-object
records, :class:`~repro.store.pickledir.PickleDirBackend` stores arbitrary
picklables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Protocol, Sequence, Tuple


@dataclass(frozen=True)
class StoreEntry:
    """One entry surfaced by :meth:`StoreBackend.scan` (metadata only)."""

    namespace: str
    key: str
    size_bytes: int = 0
    #: Seconds since the entry was last written or read (GC input).
    age_seconds: float = 0.0


@dataclass
class CompactionReport:
    """Outcome of one :meth:`StoreBackend.compact` pass."""

    shards_rewritten: int = 0
    entries_kept: int = 0
    dropped_duplicates: int = 0
    dropped_corrupt: int = 0
    reclaimed_bytes: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_duplicates + self.dropped_corrupt


@dataclass
class StoreStats:
    """Point-in-time snapshot of one backend, for reports and the CLI."""

    backend: str
    entries: int
    disk_files: int = 0
    disk_bytes: int = 0
    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evicted: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served by the backend (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class StoreBackend(Protocol):
    """What every storage backend provides.

    ``get`` returns ``(hit, value)`` so ``None`` stays a storable value;
    ``scan`` yields metadata (not values) cheaply enough for a GC sweep;
    ``compact`` rewrites the physical layout without changing the logical
    contents and reports what it dropped.

    ``get_many``/``put_many`` are the batch face of the protocol: the
    engine reads and writes each evaluation wave with one call of each.
    The defaults below fall back to per-key loops, so every backend
    supports them; backends with a cheaper bulk plan (one lock and one
    append per batch) override them.  The concrete backends inherit these
    defaults by explicitly subclassing the protocol.
    """

    name: str

    def contains(self, namespace: str, key: str) -> bool: ...

    def get(self, namespace: str, key: str) -> Tuple[bool, Any]: ...

    def put(self, namespace: str, key: str, value: Any) -> None: ...

    def delete(self, namespace: str, key: str) -> bool: ...

    def scan(self, namespace: Optional[str] = None) -> Iterator[StoreEntry]: ...

    def stats(self) -> StoreStats: ...

    def compact(self) -> CompactionReport: ...

    def get_many(self, namespace: str, keys: Sequence[str]) -> Dict[str, Any]:
        """Batch lookup: ``key -> value`` for every hit (misses absent)."""
        found: Dict[str, Any] = {}
        for key in keys:
            hit, value = self.get(namespace, key)
            if hit:
                found[key] = value
        return found

    def put_many(self, namespace: str, records: Mapping[str, Any]) -> int:
        """Batch store; returns how many records the backend accepted."""
        for key, value in records.items():
            self.put(namespace, key, value)
        return len(records)


@dataclass
class _Counters:
    """Mutable operation counters shared by the concrete backends."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evicted: int = 0


class MemoryBackend(StoreBackend):
    """A process-local dictionary behind the store protocol.

    Parameters
    ----------
    clock:
        Time source for access tracking; injectable so GC tests control
        entry ages deterministically.
    """

    name = "memory"

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self._data: Dict[Tuple[str, str], Any] = {}
        self._access: Dict[Tuple[str, str], float] = {}
        self.counters = _Counters()

    def __len__(self) -> int:
        return len(self._data)

    def contains(self, namespace: str, key: str) -> bool:
        """Availability check that counts neither a hit nor a miss."""
        return (namespace, key) in self._data

    def get(self, namespace: str, key: str) -> Tuple[bool, Any]:
        entry = (namespace, key)
        if entry in self._data:
            self._access[entry] = self._clock()
            self.counters.hits += 1
            return True, self._data[entry]
        self.counters.misses += 1
        return False, None

    def put(self, namespace: str, key: str, value: Any) -> None:
        entry = (namespace, key)
        self._data[entry] = value
        self._access[entry] = self._clock()
        self.counters.stores += 1

    def put_many(self, namespace: str, records) -> int:
        """Batch store that skips existing keys (content-hash semantics)."""
        stored = 0
        for key, value in records.items():
            if (namespace, key) in self._data:
                continue
            self.put(namespace, key, value)
            stored += 1
        return stored

    def delete(self, namespace: str, key: str) -> bool:
        entry = (namespace, key)
        if entry not in self._data:
            return False
        del self._data[entry]
        self._access.pop(entry, None)
        self.counters.evicted += 1
        return True

    def scan(self, namespace: Optional[str] = None) -> Iterator[StoreEntry]:
        now = self._clock()
        for (entry_namespace, key), accessed in list(self._access.items()):
            if namespace is not None and entry_namespace != namespace:
                continue
            yield StoreEntry(
                namespace=entry_namespace,
                key=key,
                age_seconds=max(0.0, now - accessed),
            )

    def stats(self) -> StoreStats:
        return StoreStats(
            backend=self.name,
            entries=len(self._data),
            hits=self.counters.hits,
            misses=self.counters.misses,
            stores=self.counters.stores,
            corrupt=self.counters.corrupt,
            evicted=self.counters.evicted,
        )

    def compact(self) -> CompactionReport:
        """Nothing to rewrite in memory; reported as an empty pass."""
        return CompactionReport(entries_kept=len(self._data))
