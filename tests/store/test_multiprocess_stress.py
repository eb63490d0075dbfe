"""Multiprocess stress battery: concurrent writers on one store directory.

Several OS processes hammer the same store concurrently (each opening its
own backend, exactly like independent campaign runs sharing a cache
directory).  The store contract under that load:

* zero lost records — every record any writer stored is readable by a
  fresh open afterwards,
* zero corrupt lines/files — the lock-protected append and
  write-then-rename protocols never tear a record,
* byte-stable reads after a final compaction — compacting an unchanged
  store twice produces identical bytes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle

import pytest

from repro.store import PickleDirBackend, ShardedJsonlBackend

WRITERS = 4
RECORDS_PER_WRITER = 120

# ``fork`` keeps the worker functions picklable-free and is the platform
# this battery targets (the advisory locks are POSIX fcntl locks anyway).
mp = multiprocessing.get_context("fork")

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def writer_key(writer: int, index: int) -> str:
    return hashlib.sha256(f"writer-{writer}-record-{index}".encode()).hexdigest()


def all_keys():
    return [
        writer_key(writer, index)
        for writer in range(WRITERS)
        for index in range(RECORDS_PER_WRITER)
    ]


def jsonl_writer(path, writer: int) -> None:
    backend = ShardedJsonlBackend(path)
    for index in range(RECORDS_PER_WRITER):
        backend.put("", writer_key(writer, index), {"writer": writer, "index": index})


def pickle_writer(root, writer: int) -> None:
    backend = PickleDirBackend(root)
    for index in range(RECORDS_PER_WRITER):
        # Writers deliberately collide on every key so the rename race is
        # exercised; values agree because keys are content hashes.
        backend.put("stage", writer_key(0, index), {"index": index})
        backend.put(f"stage-{writer}", writer_key(writer, index), {"index": index})


def run_writers(target, argument) -> None:
    processes = [
        mp.Process(target=target, args=(argument, writer)) for writer in range(WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_concurrent_jsonl_writers_lose_nothing(tmp_path):
    path = tmp_path / "records.jsonl"
    run_writers(jsonl_writer, path)

    merged = ShardedJsonlBackend(path)
    assert merged.corrupt_lines == 0, "concurrent appends must never tear a line"
    keys = all_keys()
    assert len(merged) == len(keys)
    for key in keys:
        hit, record = merged.get("", key)
        assert hit
        assert writer_key(record["writer"], record["index"]) == key

    # Final compaction: nothing lost, nothing corrupt, bytes stable.
    report = merged.compact()
    assert report.entries_kept == len(keys)
    assert report.dropped_corrupt == 0

    compacted = ShardedJsonlBackend(path)
    assert compacted.corrupt_lines == 0
    assert len(compacted) == len(keys)
    first_digest = file_digest(path)
    compacted.compact()
    assert file_digest(path) == first_digest, "re-compaction must be byte-stable"


def test_concurrent_pickle_writers_lose_nothing(tmp_path):
    root = tmp_path / "artifacts"
    run_writers(pickle_writer, root)

    merged = PickleDirBackend(root)
    for writer in range(WRITERS):
        for index in range(RECORDS_PER_WRITER):
            hit, value = merged.get(f"stage-{writer}", writer_key(writer, index))
            assert hit and value == {"index": index}
    for index in range(RECORDS_PER_WRITER):
        hit, value = merged.get("stage", writer_key(0, index))
        assert hit and value == {"index": index}
    assert merged.counters.corrupt == 0, "write-then-rename must never tear a file"

    report = merged.compact()
    assert report.dropped_corrupt == 0
    # Every pickle on disk is loadable and the file census is stable
    # across a second compaction.
    census = sorted(str(path.relative_to(root)) for path in root.rglob("*.pkl"))
    assert len(census) == WRITERS * RECORDS_PER_WRITER + RECORDS_PER_WRITER
    for pkl in root.rglob("*.pkl"):
        with pkl.open("rb") as handle:
            pickle.load(handle)
    merged.compact()
    assert census == sorted(str(path.relative_to(root)) for path in root.rglob("*.pkl"))


def test_concurrent_writers_then_gc_keeps_recently_read_entries(tmp_path):
    import time

    from repro.store import StoreJanitor

    path = tmp_path / "records.jsonl"
    run_writers(jsonl_writer, path)

    # Open the store "1000 seconds in the future": every writer record is
    # now over-age, then reads refresh exactly one writer's keys.
    backend = ShardedJsonlBackend(path, clock=lambda: time.time() + 1000.0)
    kept_keys = [writer_key(0, index) for index in range(RECORDS_PER_WRITER)]
    for key in kept_keys:
        assert backend.get("", key)[0]

    report = StoreJanitor(backend, max_age_seconds=500.0).sweep()
    assert report.evicted == (WRITERS - 1) * RECORDS_PER_WRITER
    for key in kept_keys:
        assert backend.contains("", key), "a just-read key must survive GC"
    survivors = ShardedJsonlBackend(path)
    assert len(survivors) == RECORDS_PER_WRITER
