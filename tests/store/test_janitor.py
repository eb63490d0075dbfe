"""Tests for age-based GC and compaction sweeps."""

from __future__ import annotations

import json

import pytest

from repro.store import ShardedJsonlBackend, StoreJanitor

from test_backends import BACKEND_KINDS, FakeClock, hex_key, make_backend


def test_rejects_negative_max_age(tmp_path):
    backend = make_backend("memory", tmp_path)
    with pytest.raises(ValueError):
        StoreJanitor(backend, max_age_seconds=-1.0)


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestSweep:
    def test_no_max_age_only_compacts(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        for index in range(6):
            backend.put("ns", hex_key(index), {"v": index})
        report = StoreJanitor(backend).sweep()
        assert report.scanned == 6
        assert report.evicted == 0
        assert report.kept == 6

    def test_evicts_entries_older_than_max_age(self, kind, tmp_path):
        clock = FakeClock()
        backend = make_backend(kind, tmp_path, clock=clock)
        backend.put("ns", hex_key(1), {"v": 1})
        clock.advance(1000.0)
        backend.put("ns", hex_key(2), {"v": 2})
        report = StoreJanitor(backend, max_age_seconds=500.0).sweep()
        assert report.evicted == 1
        assert not backend.contains("ns", hex_key(1))
        assert backend.contains("ns", hex_key(2))

    def test_never_evicts_a_key_that_was_just_read(self, kind, tmp_path):
        clock = FakeClock()
        backend = make_backend(kind, tmp_path, clock=clock)
        for index in range(8):
            backend.put("ns", hex_key(index), {"v": index})
        clock.advance(1000.0)
        read_keys = [hex_key(index) for index in range(0, 8, 2)]
        for key in read_keys:
            assert backend.get("ns", key)[0]

        report = StoreJanitor(backend, max_age_seconds=500.0).sweep()
        assert report.evicted == 4
        for key in read_keys:
            assert backend.contains("ns", key), "a just-read key must survive GC"
        for index in range(1, 8, 2):
            assert not backend.contains("ns", hex_key(index))

    def test_sweep_without_compaction(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        backend.put("ns", hex_key(1), {"v": 1})
        report = StoreJanitor(backend).sweep(compact=False)
        assert report.compaction.shards_rewritten == 0
        assert report.compaction.entries_kept == 0


def test_jsonl_eviction_is_durable_even_without_compact(tmp_path):
    """GC deletions must not resurrect on the next open (tombstone flush)."""
    import time as time_module

    path = tmp_path / "records.jsonl"
    backend = ShardedJsonlBackend(path)
    for index in range(5):
        backend.put("", hex_key(index), {"v": index})

    future = ShardedJsonlBackend(path, clock=lambda: time_module.time() + 1000.0)
    report = StoreJanitor(future, max_age_seconds=500.0).sweep(compact=False)
    assert report.evicted == 5
    assert len(ShardedJsonlBackend(path)) == 0


# ----------------------------------------------------------------------
# Disk effects specific to the persistent backends
# ----------------------------------------------------------------------
def test_jsonl_eviction_shrinks_the_shard_files(tmp_path):
    clock = FakeClock()
    path = tmp_path / "records.jsonl"
    backend = ShardedJsonlBackend(path, clock=clock)
    for index in range(20):
        backend.put("", hex_key(index), {"v": "x" * 50})
    clock.advance(1000.0)
    bytes_before = path.stat().st_size

    report = StoreJanitor(backend, max_age_seconds=500.0).sweep()
    assert report.evicted == 20
    assert report.compaction.shards_rewritten == 1
    bytes_after = path.stat().st_size
    assert bytes_after < bytes_before
    assert len(ShardedJsonlBackend(path)) == 0


def test_jsonl_sweep_drops_corrupt_lines_from_disk(tmp_path):
    path = tmp_path / "records.jsonl"
    backend = ShardedJsonlBackend(path)
    backend.put("", hex_key(1), {"v": 1})
    with path.open("a", encoding="utf-8") as handle:
        handle.write("{torn line\n")
        handle.write(json.dumps({"key": hex_key(1), "v": 1}) + "\n")

    report = StoreJanitor(ShardedJsonlBackend(path)).sweep()
    assert report.compaction.dropped_corrupt == 1
    assert report.compaction.dropped_duplicates == 1
    text = path.read_text(encoding="utf-8")
    assert len(text.splitlines()) == 1
    assert ShardedJsonlBackend(path).corrupt_lines == 0


def test_pickledir_eviction_removes_files(tmp_path):
    clock = FakeClock()
    backend = make_backend("pickle", tmp_path, clock=clock)
    for index in range(10):
        backend.put("stage", hex_key(index), index)
    clock.advance(1000.0)
    for index in range(5):
        backend.get("stage", hex_key(index))

    report = StoreJanitor(backend, max_age_seconds=500.0).sweep()
    assert report.evicted == 5
    remaining = list((tmp_path / "pickles").rglob("*.pkl"))
    assert len(remaining) == 5
