"""Append-only JSON-lines backend.

The record domain is flat JSON objects (one per line).  Three field names
are reserved and managed by the backend: ``key`` (the content-hash key,
required on every line), ``ns`` (namespace, omitted when empty) and ``ts``
(write timestamp, used for age-based GC of records that were never read
in this process).

Layout
------
One file, ``base_path`` (the evaluation cache names it
``<cache_dir>/evals-<context>.jsonl``).  Opening a backend loads the whole
file into an in-memory map that serves every lookup; writes append to the
file.  A directory written by an older version configured with several
shards keeps its ``<name>.sNN.jsonl`` siblings on disk, but they are not
read: their records are recomputed once, and because keys are content
hashes the recomputed values are the same.

Concurrency
-----------
Appends write a whole batch to an ``O_APPEND`` descriptor while holding
the file's advisory lock (:func:`repro.store.locks.locked`), so
concurrent writers interleave whole lines, never bytes.  A writer that
dies mid-write leaves a torn last line; the next append, still under the
lock, starts its batch on a fresh line, so the fragment stays one counted
corrupt line (dropped by compaction) and no later record is glued onto
it.  Compaction re-reads the file under the same lock before rewriting
it, so records appended by other processes since this backend loaded are
preserved, not lost.  Readers need no lock: a line they cannot parse is
counted as corrupt and skipped.

Read-access stamps (which age-based GC honours) live in process memory —
persisted records carry only their write ``ts``.  A janitor therefore
sees the reads of its own process, not those of other live readers; run
GC from the process that did the reading (the engine's post-campaign
janitor pass) or against directories nothing else is actively reading.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.store.backend import CompactionReport, StoreBackend, StoreEntry, StoreStats, _Counters
from repro.store.locks import locked

_Entry = Tuple[str, str]  # (namespace, key)


def _parse_lines(
    text: str, validate: Optional[Callable[[dict], bool]]
) -> Tuple[Dict[_Entry, dict], Dict[_Entry, int], int]:
    """Parse JSON-lines ``text``; returns ``(records, line_sizes, corrupt)``.

    Later lines supersede earlier ones (same content-hash key, so the
    values agree; superseding just deduplicates).  Blank lines are not
    corruption, anything unparsable or failing ``validate`` is.  Line
    sizes are kept so :meth:`ShardedJsonlBackend.scan` never has to
    re-serialize records.
    """
    records: Dict[_Entry, dict] = {}
    sizes: Dict[_Entry, int] = {}
    corrupt = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            key = record["key"]
        except (ValueError, KeyError, TypeError):
            corrupt += 1
            continue
        if not isinstance(key, str) or (validate is not None and not validate(record)):
            corrupt += 1
            continue
        entry = (record.get("ns", ""), key)
        records[entry] = record
        sizes[entry] = len(line.encode("utf-8")) + 1
    return records, sizes, corrupt


class ShardedJsonlBackend(StoreBackend):
    """One append-only JSON-lines file behind the store protocol.

    "Sharded" in the name is historical; callers still use it.

    Parameters
    ----------
    base_path:
        The JSON-lines file.  Parent directories are created on demand.
    validate:
        Optional record predicate; records failing it count as corrupt
        and are dropped on load and on compaction.
    clock:
        Time source for ``ts`` stamps and access ages (injectable for
        deterministic GC tests).
    """

    name = "jsonl"

    def __init__(
        self,
        base_path: Union[str, Path],
        validate: Optional[Callable[[dict], bool]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.base_path = Path(base_path)
        self._validate = validate
        self._clock = clock
        self.counters = _Counters()
        #: Corrupt/foreign lines skipped while loading the file.
        self.corrupt_lines = 0
        self._records: Dict[_Entry, dict] = {}
        self._sizes: Dict[_Entry, int] = {}  # encoded line bytes (for scan)
        self._stamp: Dict[_Entry, float] = {}  # write time (record ts / file mtime)
        self._access: Dict[_Entry, float] = {}  # last read in this process
        self._deleted: set = set()  # tombstones applied at compaction
        self._load()

    def _read(self) -> Tuple[str, float]:
        """The file's text and mtime (empty when nothing was written yet)."""
        try:
            return self.base_path.read_text(encoding="utf-8"), self.base_path.stat().st_mtime
        except OSError:
            return "", 0.0

    def _load(self) -> None:
        text, mtime = self._read()
        records, sizes, corrupt = _parse_lines(text, self._validate)
        self.corrupt_lines += corrupt
        self.counters.corrupt += corrupt
        for entry, record in records.items():
            self._records[entry] = record
            self._sizes[entry] = sizes[entry]
            self._stamp[entry] = float(record.get("ts", mtime))

    # ------------------------------------------------------------------
    # Protocol: get / put / delete / scan / stats
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, entry: _Entry) -> bool:
        return entry in self._records

    def contains(self, namespace: str, key: str) -> bool:
        """Availability check that counts neither a hit nor a miss."""
        return (namespace, key) in self._records

    def get(self, namespace: str, key: str) -> Tuple[bool, Any]:
        entry = (namespace, key)
        record = self._records.get(entry)
        if record is None:
            self.counters.misses += 1
            return False, None
        self._access[entry] = self._clock()
        self.counters.hits += 1
        return True, record

    def _new_record(self, namespace: str, key: str, value: Any) -> Optional[dict]:
        """The line to store for ``value``; ``None`` when the key exists.

        The stored line carries the reserved fields; ``value`` itself is
        left untouched.  Re-putting an existing key is a no-op (keys are
        content hashes, so the value cannot have changed).
        """
        if (namespace, key) in self._records:
            return None
        if not isinstance(value, dict):
            raise TypeError(f"jsonl records must be flat JSON objects, got {type(value).__name__}")
        record = dict(value)
        record["key"] = key
        if namespace:
            record["ns"] = namespace
        record["ts"] = round(self._clock(), 3)
        return record

    def _admit(self, namespace: str, key: str, record: dict, size: int) -> None:
        """Register a record in memory once its line is on disk.

        Never before: an append that raises would otherwise leave the
        record readable in this process, and a retried put skipped as
        already stored, while the file lacks it.
        """
        entry = (namespace, key)
        self._records[entry] = record
        self._stamp[entry] = record["ts"]
        self._sizes[entry] = size
        self._deleted.discard(entry)
        self.counters.stores += 1

    def put(self, namespace: str, key: str, value: Any) -> None:
        """Record the JSON object ``value`` under ``key`` and append it."""
        record = self._new_record(namespace, key, value)
        if record is None:
            return
        (size,) = self._append([record])
        self._admit(namespace, key, record, size)

    def put_many(self, namespace: str, records: Mapping[str, Any]) -> int:
        """Batch store: one lock and one append for all new records.

        The override of the protocol's per-key loop: a campaign wave costs
        one advisory lock instead of one per record.  A bad value or a
        failed append stores none of the batch.
        """
        fresh: Dict[str, dict] = {}
        for key, value in records.items():
            record = self._new_record(namespace, key, value)
            if record is not None:
                fresh[key] = record
        if fresh:
            written = self._append(list(fresh.values()))
            for (key, record), size in zip(fresh.items(), written):
                self._admit(namespace, key, record, size)
        return len(fresh)

    def get_many(self, namespace: str, keys: Sequence[str]) -> Dict[str, Any]:
        """Batch lookup served from the in-memory map (one clock read)."""
        found: Dict[str, Any] = {}
        now = self._clock()
        for key in keys:
            entry = (namespace, key)
            record = self._records.get(entry)
            if record is None:
                self.counters.misses += 1
                continue
            self._access[entry] = now
            self.counters.hits += 1
            found[key] = record
        return found

    def _append(self, records: Sequence[dict]) -> List[int]:
        """Append record lines to the file; returns the bytes per line.

        Under the lock, a file whose last byte is not a newline (a torn
        line) gets one before the batch, and short writes are retried
        until the whole batch is on disk.
        """
        path = self.base_path
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            (json.dumps(record, sort_keys=True) + "\n").encode("utf-8") for record in records
        ]
        payload = b"".join(lines)
        with locked(path):
            descriptor = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                size = os.fstat(descriptor).st_size
                if size and os.pread(descriptor, 1, size - 1) != b"\n":
                    payload = b"\n" + payload
                pending = memoryview(payload)
                while pending:
                    pending = pending[os.write(descriptor, pending) :]
            finally:
                os.close(descriptor)
        return [len(line) for line in lines]

    def delete(self, namespace: str, key: str) -> bool:
        """Drop the entry from this backend; the line disappears on compaction."""
        entry = (namespace, key)
        if entry not in self._records:
            return False
        del self._records[entry]
        self._stamp.pop(entry, None)
        self._sizes.pop(entry, None)
        self._access.pop(entry, None)
        self._deleted.add(entry)
        self.counters.evicted += 1
        return True

    def scan(self, namespace: Optional[str] = None) -> Iterator[StoreEntry]:
        now = self._clock()
        for entry_namespace, key in list(self._records):
            if namespace is not None and entry_namespace != namespace:
                continue
            entry = (entry_namespace, key)
            freshest = max(self._stamp.get(entry, 0.0), self._access.get(entry, 0.0))
            yield StoreEntry(
                namespace=entry_namespace,
                key=key,
                size_bytes=self._sizes.get(entry, 0),
                age_seconds=max(0.0, now - freshest),
            )

    def _disk_bytes(self) -> int:
        try:
            return self.base_path.stat().st_size
        except OSError:
            return 0

    def stats(self) -> StoreStats:
        return StoreStats(
            backend=self.name,
            entries=len(self._records),
            disk_files=int(self.base_path.exists()),
            disk_bytes=self._disk_bytes(),
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
        """Rewrite the file: dedup, drop corrupt lines, apply deletes.

        The file's lock is held for the whole pass, so concurrent
        appenders wait for it.  The file is re-read first, so records
        appended by other processes after this backend loaded are merged
        in, then everything is rewritten sorted by key: a second
        compaction of an unchanged store is byte-identical.
        """
        report = CompactionReport()
        path = self.base_path
        with locked(path):
            bytes_before = self._disk_bytes()
            # Fresh read, so no other writer's records are dropped by the
            # rewrite.
            text, mtime = self._read()
            lines_seen = sum(1 for line in text.splitlines() if line.strip())
            records, sizes, corrupt = _parse_lines(text, self._validate)
            report.dropped_corrupt = corrupt
            for entry, record in records.items():
                if entry in self._deleted or entry in self._records:
                    continue
                self._records[entry] = record
                self._sizes[entry] = sizes[entry]
                self._stamp[entry] = float(record.get("ts", mtime))
            report.dropped_duplicates = max(0, lines_seen - corrupt - len(records))
            payload = "".join(
                json.dumps(record, sort_keys=True) + "\n"
                for _, record in sorted(self._records.items())
            )
            if payload or path.exists():
                temporary = path.with_name(path.name + ".compact.tmp")
                temporary.write_text(payload, encoding="utf-8")
                os.replace(temporary, path)
                report.shards_rewritten = 1
            bytes_after = self._disk_bytes()
        self._deleted.clear()
        report.entries_kept = len(self._records)
        report.reclaimed_bytes = max(0, bytes_before - bytes_after)
        return report
