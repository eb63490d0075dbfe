"""Benchmark: storage-backend throughput and compaction payoff.

Times ``put``/``get`` over the three :mod:`repro.store` backends on a
synthetic record population shaped like real evaluation-cache traffic
(small flat JSON objects, content-hash keys), prints a throughput table,
and asserts the structural claims the storage layer makes:

* warm ``get`` throughput is strictly positive for every backend and the
  in-memory backend is the fastest (sanity ordering),
* compacting a duplicate-heavy JSONL store shrinks its file while
  preserving every record.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.store import MemoryBackend, PickleDirBackend, ShardedJsonlBackend
from repro.utils.tabulate import format_table

RECORDS = 400
#: Duplicate append factor for the compaction benchmark (simulates racing
#: writers re-recording the same content-hashed results).
DUPLICATES = 3


def record_key(index: int) -> str:
    return hashlib.sha256(f"record-{index}".encode()).hexdigest()


def payload(index: int) -> dict:
    return {"label": f"rsp(shr={index % 3})", "area_slices": float(index), "stalls": index % 7}


def timed(function) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


def populate(backend) -> float:
    return timed(
        lambda: [backend.put("ns", record_key(i), payload(i)) for i in range(RECORDS)]
    )


def read_all(backend) -> float:
    return timed(lambda: [backend.get("ns", record_key(i)) for i in range(RECORDS)])


def test_backend_throughput_table(tmp_path):
    rows = []
    reads = {}
    for label, backend in (
        ("memory", MemoryBackend()),
        ("jsonl x1", ShardedJsonlBackend(tmp_path / "flat.jsonl")),
        ("pickle x1", PickleDirBackend(tmp_path / "flat")),
    ):
        put_seconds = populate(backend)
        get_seconds = read_all(backend)
        reads[label] = get_seconds
        rows.append(
            [
                label,
                RECORDS,
                round(RECORDS / put_seconds),
                round(RECORDS / get_seconds),
                backend.stats().disk_bytes,
            ]
        )
        assert backend.stats().hits == RECORDS
    print()
    print(
        format_table(
            rows,
            headers=["backend", "records", "puts/s", "gets/s", "disk B"],
            title="store backend throughput",
        )
    )
    assert min(reads.values()) > 0
    # Warm jsonl reads are in-memory dict lookups, so they tie with the
    # memory backend; pickle re-reads the disk and must be the slow one.
    assert reads["memory"] < reads["pickle x1"]


def test_compaction_shrinks_a_duplicate_heavy_store(tmp_path):
    path = tmp_path / "records.jsonl"
    backend = ShardedJsonlBackend(path)
    for index in range(RECORDS):
        backend.put("", record_key(index), payload(index))
    # Simulate racing writers: every record re-appended DUPLICATES times.
    with path.open("a", encoding="utf-8") as handle:
        for _ in range(DUPLICATES):
            for index in range(RECORDS):
                handle.write(
                    json.dumps({**payload(index), "key": record_key(index)}) + "\n"
                )

    dirty = ShardedJsonlBackend(path)
    before = path.stat().st_size
    elapsed = timed(dirty.compact)
    after = path.stat().st_size
    print(f"\ncompaction: {before} B -> {after} B in {elapsed * 1000:.1f} ms")
    assert after < before / 2  # the duplicate appends dominate and are gone
    compacted = ShardedJsonlBackend(path)
    assert len(compacted) == RECORDS
    assert compacted.corrupt_lines == 0
