"""Unit tests for the unified storage backends."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time

import pytest

from repro.store import (
    MemoryBackend,
    PickleDirBackend,
    ShardedJsonlBackend,
)


class FakeClock:
    """An injectable time source tests advance explicitly."""

    def __init__(self, now: float = None) -> None:
        self.now = time.time() if now is None else now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def hex_key(index: int) -> str:
    # A real content hash: distinct keys must differ within the first 32
    # characters, which is all the pickle backend keeps for file names.
    return hashlib.sha256(str(index).encode()).hexdigest()


def fail_next_write(monkeypatch) -> None:
    """Make the JSONL backend's next ``os.write`` fail as a full disk does."""
    write = os.write
    failed = []

    def write_or_fail_once(descriptor, data):
        if failed:
            return write(descriptor, data)
        failed.append(len(data))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("repro.store.jsonl.os.write", write_or_fail_once)


def make_backend(kind: str, tmp_path, clock=None):
    clock = clock or time.time
    if kind == "memory":
        return MemoryBackend(clock=clock)
    if kind == "jsonl":
        return ShardedJsonlBackend(tmp_path / "records.jsonl", clock=clock)
    return PickleDirBackend(tmp_path / "pickles", clock=clock)


BACKEND_KINDS = ("memory", "jsonl", "pickle")


# ----------------------------------------------------------------------
# Protocol behaviour shared by every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestProtocol:
    def test_round_trip_and_counters(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        key = hex_key(1)
        hit, value = backend.get("ns", key)
        assert not hit and value is None
        assert not backend.contains("ns", key)

        backend.put("ns", key, {"payload": 7})
        assert backend.contains("ns", key)
        hit, value = backend.get("ns", key)
        assert hit and value["payload"] == 7

        stats = backend.stats()
        assert stats.backend == backend.name
        assert stats.hits == 1 and stats.misses == 1 and stats.stores == 1
        assert stats.entries == 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_namespaces_are_disjoint(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        backend.put("alpha", hex_key(2), {"v": 1})
        assert backend.contains("alpha", hex_key(2))
        assert not backend.contains("beta", hex_key(2))
        assert not backend.get("beta", hex_key(2))[0]

    def test_delete_then_scan(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        backend.put("ns", hex_key(3), {"v": 1})
        backend.put("ns", hex_key(4), {"v": 2})
        assert backend.delete("ns", hex_key(3))
        assert not backend.delete("ns", hex_key(3))
        assert not backend.contains("ns", hex_key(3))
        remaining = {entry.key for entry in backend.scan("ns")}
        assert len(remaining) == 1
        assert backend.stats().evicted == 1

    def test_compact_preserves_contents(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        keys = [hex_key(index) for index in range(16)]
        for index, key in enumerate(keys):
            backend.put("ns", key, {"v": index})
        report = backend.compact()
        assert report.entries_kept == 16
        assert all(backend.get("ns", key)[0] for key in keys)

    def test_scan_ages_grow_with_the_clock(self, kind, tmp_path):
        clock = FakeClock()
        backend = make_backend(kind, tmp_path, clock=clock)
        backend.put("ns", hex_key(5), {"v": 1})
        clock.advance(100.0)
        (entry,) = list(backend.scan("ns"))
        assert entry.age_seconds == pytest.approx(100.0, abs=2.0)

    def test_read_refreshes_the_age(self, kind, tmp_path):
        clock = FakeClock()
        backend = make_backend(kind, tmp_path, clock=clock)
        backend.put("ns", hex_key(6), {"v": 1})
        clock.advance(100.0)
        assert backend.get("ns", hex_key(6))[0]
        (entry,) = list(backend.scan("ns"))
        assert entry.age_seconds == pytest.approx(0.0, abs=2.0)


# ----------------------------------------------------------------------
# ShardedJsonlBackend specifics
# ----------------------------------------------------------------------
class TestJsonl:
    def test_rejects_non_dict_records(self, tmp_path):
        backend = make_backend("jsonl", tmp_path)
        with pytest.raises(TypeError):
            backend.put("", hex_key(1), [1, 2, 3])

    def test_append_is_visible_to_a_fresh_open(self, tmp_path):
        first = make_backend("jsonl", tmp_path)
        second = make_backend("jsonl", tmp_path)
        first.put("", hex_key(1), {"v": 1})
        # Not visible to an already-open backend (content-hash keys make
        # this safe: the worst case is a recompute)...
        assert not second.contains("", hex_key(1))
        # ...but a fresh open sees it.
        third = make_backend("jsonl", tmp_path)
        assert third.get("", hex_key(1)) == (True, third._records[("", hex_key(1))])

    def test_corrupt_lines_counted_and_skipped(self, tmp_path):
        backend = make_backend("jsonl", tmp_path)
        backend.put("", hex_key(1), {"v": 1})
        with (tmp_path / "records.jsonl").open("a", encoding="utf-8") as handle:
            handle.write("{truncated\n")
            handle.write(json.dumps({"no_key": True}) + "\n")
            handle.write("\n")  # blank lines are not corruption
        reopened = make_backend("jsonl", tmp_path)
        assert reopened.corrupt_lines == 2
        assert len(reopened) == 1

    def test_validate_hook_marks_records_corrupt(self, tmp_path):
        backend = ShardedJsonlBackend(tmp_path / "records.jsonl")
        backend.put("", hex_key(1), {"v": 1})
        backend.put("", hex_key(2), {"other": 2})
        validated = ShardedJsonlBackend(
            tmp_path / "records.jsonl", validate=lambda record: "v" in record
        )
        assert validated.corrupt_lines == 1
        assert validated.contains("", hex_key(1))
        assert not validated.contains("", hex_key(2))

    def test_compaction_dedups_and_is_byte_stable(self, tmp_path):
        path = tmp_path / "records.jsonl"
        writer = ShardedJsonlBackend(path)
        keys = [hex_key(index) for index in range(20)]
        for key in keys:
            writer.put("", key, {"v": 1})
        # Duplicate some lines (a second writer racing on the same keys)
        # and corrupt one.
        with path.open("a", encoding="utf-8") as handle:
            for key in keys[:5]:
                handle.write(json.dumps({"key": key, "v": 1}) + "\n")
            handle.write("garbage\n")

        backend = ShardedJsonlBackend(path)
        report = backend.compact()
        assert report.entries_kept == 20
        assert report.dropped_duplicates == 5
        assert report.dropped_corrupt == 1
        assert report.shards_rewritten == 1

        first = path.read_bytes()
        second_report = ShardedJsonlBackend(path).compact()
        assert second_report.dropped == 0
        assert path.read_bytes() == first  # byte-stable under re-compaction
        reopened = ShardedJsonlBackend(path)
        assert all(reopened.get("", key)[0] for key in keys)

    def test_compaction_merges_records_appended_by_another_writer(self, tmp_path):
        path = tmp_path / "records.jsonl"
        ours = ShardedJsonlBackend(path)
        ours.put("", hex_key(1), {"v": 1})
        theirs = ShardedJsonlBackend(path)
        theirs.put("", hex_key(2), {"v": 2})
        ours.compact()  # must not lose the other writer's record
        reopened = ShardedJsonlBackend(path)
        assert reopened.contains("", hex_key(1))
        assert reopened.contains("", hex_key(2))

    def test_put_after_a_torn_tail_starts_on_a_fresh_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        make_backend("jsonl", tmp_path).put("", hex_key(1), {"v": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write(f'{{"key": "{hex_key(2)}", "v"')  # a writer died mid-line
        make_backend("jsonl", tmp_path).put("", hex_key(3), {"v": 3})

        reopened = make_backend("jsonl", tmp_path)
        assert reopened.get("", hex_key(3)) == (True, reopened._records[("", hex_key(3))])
        assert reopened.contains("", hex_key(1))
        assert reopened.corrupt_lines == 1  # the torn fragment, and only it
        assert reopened.compact().dropped_corrupt == 1
        compacted = make_backend("jsonl", tmp_path)
        assert compacted.corrupt_lines == 0
        assert len(compacted) == 2

    def test_a_short_write_is_completed(self, tmp_path, monkeypatch):
        backend = make_backend("jsonl", tmp_path)
        records = {hex_key(index): {"v": index} for index in range(10)}
        write = os.write
        shortened = []

        def write_half_once(descriptor, data):
            if shortened:
                return write(descriptor, data)
            shortened.append(len(data))
            return write(descriptor, bytes(data[: len(data) // 2]))

        with monkeypatch.context() as patch:
            patch.setattr("repro.store.jsonl.os.write", write_half_once)
            backend.put_many("", records)
        assert shortened

        reopened = make_backend("jsonl", tmp_path)
        assert reopened.corrupt_lines == 0
        for key, value in records.items():
            hit, record = reopened.get("", key)
            assert hit and record["v"] == value["v"]

    def test_a_failed_put_stores_nothing_and_can_be_retried(self, tmp_path, monkeypatch):
        backend = make_backend("jsonl", tmp_path)
        fail_next_write(monkeypatch)
        with pytest.raises(OSError):
            backend.put("", hex_key(1), {"v": 1})
        assert not backend.contains("", hex_key(1))
        assert backend.counters.stores == 0
        assert not make_backend("jsonl", tmp_path).contains("", hex_key(1))

        backend.put("", hex_key(1), {"v": 1})
        assert backend.counters.stores == 1
        assert make_backend("jsonl", tmp_path).contains("", hex_key(1))

    def test_a_failed_put_many_stores_nothing_and_can_be_retried(self, tmp_path, monkeypatch):
        backend = make_backend("jsonl", tmp_path)
        records = {hex_key(1): {"v": 1}, hex_key(2): {"v": 2}}
        fail_next_write(monkeypatch)
        with pytest.raises(OSError):
            backend.put_many("", records)
        assert not any(backend.contains("", key) for key in records)
        assert backend.counters.stores == 0
        assert len(make_backend("jsonl", tmp_path)) == 0

        assert backend.put_many("", records) == 2
        assert backend.counters.stores == 2
        reopened = make_backend("jsonl", tmp_path)
        assert all(reopened.contains("", key) for key in records)

    def test_delete_survives_compaction(self, tmp_path):
        path = tmp_path / "records.jsonl"
        backend = ShardedJsonlBackend(path)
        backend.put("", hex_key(1), {"v": 1})
        backend.put("", hex_key(2), {"v": 2})
        backend.delete("", hex_key(1))
        backend.compact()
        reopened = ShardedJsonlBackend(path)
        assert not reopened.contains("", hex_key(1))
        assert reopened.contains("", hex_key(2))


# ----------------------------------------------------------------------
# PickleDirBackend specifics
# ----------------------------------------------------------------------
class TestPickleDir:
    def test_arbitrary_picklables_round_trip(self, tmp_path):
        backend = make_backend("pickle", tmp_path)
        value = {"nested": [1, (2, 3)], "text": "x" * 100}
        backend.put("stage", hex_key(1), value)
        assert backend.get("stage", hex_key(1)) == (True, value)
        assert backend.get("stage", hex_key(1))[1] == value

    def test_flat_layout_when_unsharded(self, tmp_path):
        backend = make_backend("pickle", tmp_path)
        backend.put("stage", hex_key(1), 1)
        assert (tmp_path / "pickles" / "stage" / f"{hex_key(1)[:32]}.pkl").exists()

    def test_corrupt_file_counts_and_misses(self, tmp_path):
        backend = make_backend("pickle", tmp_path)
        backend.put("stage", hex_key(1), "good")
        target = tmp_path / "pickles" / "stage" / f"{hex_key(1)[:32]}.pkl"
        target.write_bytes(b"\x80\x04 not a pickle")
        hit, _ = backend.get("stage", hex_key(1))
        assert not hit
        assert backend.counters.corrupt == 1

    def test_compaction_drops_corrupt_and_cleans_tmp(self, tmp_path):
        backend = make_backend("pickle", tmp_path)
        keys = [hex_key(index) for index in range(8)]
        for index, key in enumerate(keys):
            backend.put("stage", key, index)
        stage_dir = tmp_path / "pickles" / "stage"
        (stage_dir / f"{hex_key(50)[:32]}.pkl").write_bytes(b"junk")
        orphan = stage_dir / "leftover.pkl.12345.tmp"
        orphan.write_bytes(b"partial write from an interrupted run")
        stale = time.time() - 3600
        os.utime(orphan, times=(stale, stale))
        in_flight = stage_dir / "racing.pkl.99999.tmp"
        in_flight.write_bytes(b"a live writer's in-flight temp file")

        report = backend.compact()
        assert report.entries_kept == 8
        assert report.dropped_corrupt == 1
        # Stale orphans are swept; a fresh temp file (possibly a live
        # writer mid-rename) is left alone.
        assert list(stage_dir.glob("*.tmp")) == [in_flight]
        assert len(list(stage_dir.glob("*.pkl"))) == 8  # the corrupt file is gone
        assert all(backend.get("stage", key)[0] for key in keys)


# ----------------------------------------------------------------------
# Batch protocol methods (get_many / put_many)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestBatchMethods:
    def test_put_many_then_get_many(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        records = {hex_key(index): {"v": index} for index in range(20)}
        stored = backend.put_many("ns", records)
        assert stored == len(records)

        found = backend.get_many("ns", list(records) + [hex_key(99)])
        assert set(found) == set(records)
        for key, value in records.items():
            assert {name: found[key][name] for name in value} == value
        assert backend.get_many("ns", []) == {}

    def test_put_many_skips_existing_keys(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        records = {hex_key(index): {"v": index} for index in range(5)}
        backend.put_many("ns", records)
        stores_before = backend.counters.stores
        assert backend.put_many("ns", records) == 0
        assert backend.counters.stores == stores_before

    def test_get_many_counts_hits_and_misses(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        backend.put_many("ns", {hex_key(1): {"v": 1}})
        backend.get_many("ns", [hex_key(1), hex_key(2), hex_key(3)])
        assert backend.counters.hits == 1
        assert backend.counters.misses == 2

    def test_get_many_refreshes_gc_ages(self, kind, tmp_path):
        """A batch read protects its keys from eviction like a get does."""
        from repro.store import StoreJanitor

        clock = FakeClock()
        backend = make_backend(kind, tmp_path, clock=clock)
        backend.put_many("ns", {hex_key(index): {"v": index} for index in range(4)})
        clock.advance(1000.0)
        backend.get_many("ns", [hex_key(0), hex_key(1)])

        StoreJanitor(backend, max_age_seconds=500.0).sweep()
        assert backend.contains("ns", hex_key(0))
        assert backend.contains("ns", hex_key(1))
        assert not backend.contains("ns", hex_key(2))
        assert not backend.contains("ns", hex_key(3))


def test_jsonl_put_many_appends_one_batch_per_shard(tmp_path, monkeypatch):
    """The override appends a batch at once and survives a reopen."""
    backend = make_backend("jsonl", tmp_path)
    records = {hex_key(index): {"v": index} for index in range(40)}
    appends = []
    append = backend._append
    monkeypatch.setattr(
        backend, "_append", lambda lines: appends.append(len(lines)) or append(lines)
    )
    backend.put_many("ns", records)
    assert appends == [40]  # one locked append for the whole batch

    reopened = make_backend("jsonl", tmp_path)
    assert reopened.corrupt_lines == 0
    assert len(reopened) == 40
    for key, value in records.items():
        hit, record = reopened.get("ns", key)
        assert hit and record["v"] == value["v"]


def test_jsonl_put_many_rejects_the_whole_batch_on_a_bad_value(tmp_path):
    """A domain error must not leave earlier records admitted in memory
    but never appended to disk."""
    backend = make_backend("jsonl", tmp_path)
    with pytest.raises(TypeError):
        backend.put_many("ns", {hex_key(1): {"v": 1}, hex_key(2): [1, 2]})
    assert not backend.contains("ns", hex_key(1))
    assert backend.counters.stores == 0
    reopened = make_backend("jsonl", tmp_path)
    assert len(reopened) == 0
