"""Read-through / write-behind tiering of a memory front over any backend.

``TieredBackend`` composes two stores:

* a *front* (:class:`~repro.store.backend.MemoryBackend` by default) that
  absorbs every repeat read — a key fetched once is never requested from
  the slow tier again in this process, which is what keeps each of the
  processes or machines sharing one store from hammering its service
  with the same artifact lookups;
* the *slow tier* (typically a :class:`~repro.store.remote.RemoteBackend`,
  but any backend works) that is the durable source of truth.

Writes land in the front immediately and are acknowledged; the actual
slow-tier write is *deferred*: queued in a bounded buffer and flushed by
a background thread in batches (one :meth:`put_many` per namespace per
batch — over HTTP that is one round trip instead of one per record).
``flush()`` drains synchronously, ``close()`` drains, stops the flusher
and closes the slow tier, and a full queue flushes inline on the
writer's thread so the buffer stays bounded.

Because keys are content hashes, the front can never serve a *stale*
value — at worst it serves a value the slow tier has since evicted, which
is indistinguishable from having cached the recomputation.  That is why
read-through caching needs no invalidation protocol here.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.store.backend import (
    CompactionReport,
    MemoryBackend,
    StoreBackend,
    StoreEntry,
    StoreStats,
)
from repro.store.janitor import JanitorReport, StoreJanitor


class TieredBackend(StoreBackend):
    """A memory front with write-behind batching over a slower backend.

    Parameters
    ----------
    backend:
        The durable slow tier.
    front:
        The fast tier; a fresh :class:`MemoryBackend` when omitted.
    max_queue:
        Pending-write bound; a ``put`` finding the queue full flushes
        inline instead of growing it.
    batch_size:
        Largest batch the flusher hands to ``backend.put_many`` at once.
    flush_interval:
        How long the background flusher sleeps between looking for work.
    auto_flush:
        ``False`` disables the background thread entirely — writes then
        reach the slow tier only on explicit :meth:`flush`/:meth:`close`
        (deterministic mode for tests).
    """

    name = "tiered"

    def __init__(
        self,
        backend: StoreBackend,
        front: Optional[StoreBackend] = None,
        *,
        max_queue: int = 1024,
        batch_size: int = 128,
        flush_interval: float = 0.05,
        auto_flush: bool = True,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be at least 1, got {max_queue}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        self.backend = backend
        self.front = front if front is not None else MemoryBackend()
        self.max_queue = max_queue
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.auto_flush = auto_flush
        self._queue: Deque[Tuple[str, str, Any]] = deque()
        self._condition = threading.Condition()
        self._in_flight = 0
        self._closed = False
        self._flusher: Optional[threading.Thread] = None
        # Tier counters (reported via tier_stats / the CLI summary line).
        self.front_hits = 0
        self.front_misses = 0
        self.flush_batches = 0
        self.flushed_records = 0
        self.flush_errors = 0
        #: Records in flush batches the slow tier rejected — they stayed
        #: in the front but never reached durable storage.
        self.dropped_records = 0
        self.inline_flushes = 0

    # ------------------------------------------------------------------
    # Write-behind machinery
    # ------------------------------------------------------------------
    @property
    def counters(self):
        """Operation counters of the slow tier (corruption lives there)."""
        return self.backend.counters  # type: ignore[attr-defined]

    @property
    def pending(self) -> int:
        """Writes queued or in flight toward the slow tier."""
        with self._condition:
            return len(self._queue) + self._in_flight

    def _ensure_flusher(self) -> None:
        if not self.auto_flush or self._closed:
            return
        if self._flusher is None or not self._flusher.is_alive():
            self._flusher = threading.Thread(
                target=self._flush_loop, name="tiered-store-flusher", daemon=True
            )
            self._flusher.start()

    def _take_batch(self) -> List[Tuple[str, str, Any]]:
        batch: List[Tuple[str, str, Any]] = []
        while self._queue and len(batch) < self.batch_size:
            batch.append(self._queue.popleft())
        self._in_flight += len(batch)
        return batch

    def _write_out(self, batch: List[Tuple[str, str, Any]]) -> None:
        grouped: Dict[str, Dict[str, Any]] = {}
        for namespace, key, value in batch:
            grouped.setdefault(namespace, {})[key] = value
        try:
            for namespace, records in grouped.items():
                self.backend.put_many(namespace, records)
            self.flush_batches += 1
            self.flushed_records += len(batch)
        except Exception:
            # The slow tier is allowed to fail (a strict remote, a full
            # disk); the batch is dropped, not retried forever — the
            # values are content-addressed recomputables, not ledgers.
            self.flush_errors += 1
            self.dropped_records += len(batch)
        finally:
            with self._condition:
                self._in_flight -= len(batch)
                self._condition.notify_all()

    def _flush_loop(self) -> None:
        while True:
            with self._condition:
                if self._closed and not self._queue:
                    return
                if not self._queue:
                    self._condition.wait(timeout=self.flush_interval)
                batch = self._take_batch()
            if batch:
                self._write_out(batch)

    def flush(self) -> None:
        """Drain every pending write to the slow tier before returning."""
        while True:
            with self._condition:
                batch = self._take_batch()
                if not batch and self._in_flight:
                    # The flusher owns the remaining writes; wait them out.
                    self._condition.wait(timeout=self.flush_interval)
                    continue
            if not batch:
                return
            self._write_out(batch)

    def close(self, timeout: float = 5.0) -> None:
        """Drain pending writes, bounded by ``timeout``, then close the slow
        tier; never drop silently.

        The drain runs on the caller's thread (like :meth:`flush`) against
        a deadline.  A healthy slow tier empties the queue and the close is
        clean; a wedged one (a remote hanging inside its socket timeout)
        cannot hold the campaign hostage — at the deadline the records
        still *queued* are counted into :attr:`dropped_records` and
        reported with a :class:`RuntimeWarning`.  Batches already in
        flight are not double-counted: :meth:`_write_out` accounts for
        them itself when the slow tier finally answers (or fails).
        """
        deadline = time.monotonic() + timeout
        with self._condition:
            self._closed = True
            self._condition.notify_all()
        stranded = 0
        in_flight = 0
        while True:
            batch: List[Tuple[str, str, Any]] = []
            with self._condition:
                if not self._queue and not self._in_flight:
                    break
                if time.monotonic() >= deadline:
                    stranded = len(self._queue)
                    in_flight = self._in_flight
                    self.dropped_records += stranded
                    self._queue.clear()
                    break
                batch = self._take_batch()
                if not batch:
                    # The flusher owns the in-flight writes; wait them out
                    # (but never past the deadline).
                    self._condition.wait(
                        timeout=min(
                            self.flush_interval,
                            max(deadline - time.monotonic(), 0.001),
                        )
                    )
                    continue
            if batch:
                self._write_out(batch)
        if self._flusher is not None:
            self._flusher.join(timeout=max(deadline - time.monotonic(), 0.0))
            self._flusher = None
        self.backend.close()
        if stranded or in_flight:
            warnings.warn(
                f"tiered store closed with {stranded} queued record(s) dropped"
                + (
                    f" and {in_flight} record(s) still in flight toward the slow tier"
                    if in_flight
                    else ""
                )
                + f" after the {timeout:.1f}s drain deadline — the slow tier "
                "did not keep up; the values stay recomputable (content-"
                "addressed) but this process's results did not all reach "
                "durable storage",
                RuntimeWarning,
                stacklevel=2,
            )

    def __enter__(self) -> "TieredBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Protocol: get / put / delete / scan / stats / compact
    # ------------------------------------------------------------------
    def contains(self, namespace: str, key: str) -> bool:
        return self.front.contains(namespace, key) or self.backend.contains(namespace, key)

    def get(self, namespace: str, key: str) -> Tuple[bool, Any]:
        hit, value = self.front.get(namespace, key)
        if hit:
            self.front_hits += 1
            return True, value
        self.front_misses += 1
        hit, value = self.backend.get(namespace, key)
        if hit:
            self.front.put(namespace, key, value)
        return hit, value

    def get_many(self, namespace: str, keys: Sequence[str]) -> Dict[str, Any]:
        """Front probe, then one slow-tier batch for the rest (installed in front)."""
        found: Dict[str, Any] = {}
        missing: List[str] = []
        for key in keys:
            hit, value = self.front.get(namespace, key)
            if hit:
                self.front_hits += 1
                found[key] = value
            else:
                self.front_misses += 1
                missing.append(key)
        if missing:
            fetched = self.backend.get_many(namespace, missing)
            for key, value in fetched.items():
                self.front.put(namespace, key, value)
            found.update(fetched)
        return found

    def put(self, namespace: str, key: str, value: Any) -> None:
        self.front.put(namespace, key, value)
        self._enqueue([(namespace, key, value)])

    def put_many(self, namespace: str, records: Mapping[str, Any]) -> int:
        for key, value in records.items():
            self.front.put(namespace, key, value)
        self._enqueue([(namespace, key, value) for key, value in records.items()])
        return len(records)

    def _enqueue(self, items: List[Tuple[str, str, Any]]) -> None:
        overflow = False
        with self._condition:
            self._queue.extend(items)
            if len(self._queue) > self.max_queue:
                overflow = True
            self._condition.notify_all()
        self._ensure_flusher()
        if overflow:
            # Bounded buffer: the writer pays for its own burst instead of
            # growing the queue without limit.
            self.inline_flushes += 1
            self.flush()

    def delete(self, namespace: str, key: str) -> bool:
        with self._condition:
            # Drop pending writes of the key, then wait out any batch the
            # flusher already took, so no flush — queued or in flight —
            # can resurrect what this delete removed.
            self._queue = deque(
                item for item in self._queue if item[:2] != (namespace, key)
            )
            while self._in_flight:
                self._condition.wait(timeout=self.flush_interval)
        front_removed = self.front.delete(namespace, key)
        backend_removed = self.backend.delete(namespace, key)
        return front_removed or backend_removed

    def scan(self, namespace: Optional[str] = None) -> Iterator[StoreEntry]:
        """Slow-tier metadata (pending writes are flushed first)."""
        self.flush()
        yield from self.backend.scan(namespace)

    def stats(self) -> StoreStats:
        """The slow tier's snapshot, relabelled as the tier's own."""
        snapshot = self.backend.stats()
        snapshot.backend = f"tiered({snapshot.backend})"
        return snapshot

    def __len__(self) -> int:
        return self.stats().entries

    def compact(self) -> CompactionReport:
        self.flush()
        return self.backend.compact()

    def sweep_remote(
        self, max_age_seconds: Optional[float] = None, compact: bool = True
    ) -> JanitorReport:
        """Flush, then run the slow tier's janitor (remotely when it can).

        The front keeps whatever GC evicted on the slow tier: content-hash
        keys cannot go stale, so a front hit on an evicted key is simply a
        cache of the recomputation GC asked for.
        """
        self.flush()
        delegate = getattr(self.backend, "sweep_remote", None)
        if delegate is not None:
            return delegate(max_age_seconds, compact)
        return StoreJanitor(self.backend, max_age_seconds=max_age_seconds).sweep(compact=compact)

    def tier_stats(self) -> Dict[str, object]:
        """Front hit/miss and flush counters for reports and the CLI."""
        return {
            "front_hits": self.front_hits,
            "front_misses": self.front_misses,
            "front_entries": self.front.stats().entries,
            "flush_batches": self.flush_batches,
            "flushed_records": self.flushed_records,
            "flush_errors": self.flush_errors,
            "dropped_records": self.dropped_records,
            "inline_flushes": self.inline_flushes,
            "pending": self.pending,
        }
