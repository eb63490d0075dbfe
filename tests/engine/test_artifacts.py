"""Tests for the content-addressed artifact store."""

from __future__ import annotations

import pickle

import pytest

from repro.engine.artifacts import ARTIFACT_SUBDIR, ArtifactStore


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path)


KEY = "a" * 64
OTHER_KEY = "b" * 64


class TestInMemoryStore:
    def test_miss_then_hit(self):
        store = ArtifactStore()
        hit, value = store.fetch("stage", KEY)
        assert not hit and value is None
        store.put("stage", KEY, {"x": 1})
        hit, value = store.fetch("stage", KEY)
        assert hit and value == {"x": 1}
        assert not store.persistent
        assert store.directory is None

    def test_none_is_a_storable_value(self):
        store = ArtifactStore()
        store.put("stage", KEY, None)
        hit, value = store.fetch("stage", KEY)
        assert hit and value is None

    def test_stages_namespace_keys(self):
        store = ArtifactStore()
        store.put("alpha", KEY, 1)
        assert store.contains("alpha", KEY)
        assert not store.contains("beta", KEY)


class TestPersistentStore:
    def test_round_trip_across_instances(self, tmp_path):
        first = ArtifactStore(tmp_path)
        first.put("stage", KEY, [1, 2, 3])
        second = ArtifactStore(tmp_path)
        assert second.contains("stage", KEY)
        hit, value = second.fetch("stage", KEY)
        assert hit and value == [1, 2, 3]
        assert second.stats.hits == 1

    def test_shared_directory_layout(self, store, tmp_path):
        store.put("base_schedule", KEY, "payload")
        files = list((tmp_path / ARTIFACT_SUBDIR / "base_schedule").glob("*.pkl"))
        assert len(files) == 1
        assert files[0].name.startswith(KEY[:32])

    def test_disk_hit_populates_memory_and_returns_same_object(self, tmp_path):
        ArtifactStore(tmp_path).put("stage", KEY, {"deep": [1]})
        store = ArtifactStore(tmp_path)
        _, first = store.fetch("stage", KEY)
        _, second = store.fetch("stage", KEY)
        assert first is second

    def test_corrupt_file_is_a_counted_warning_miss(self, store, tmp_path):
        store.put("stage", KEY, "good")
        path = next((tmp_path / ARTIFACT_SUBDIR / "stage").glob("*.pkl"))
        path.write_bytes(b"\x80\x04 not a pickle")
        fresh = ArtifactStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt artifact stage/"):
            hit, _ = fresh.fetch("stage", KEY)
        assert not hit
        assert fresh.stats.corrupt == 1
        # The next put simply overwrites the corrupt file.
        fresh.put("stage", KEY, "repaired")
        with path.open("rb") as handle:
            assert pickle.load(handle) == "repaired"

    def test_stats_track_per_stage(self, store):
        store.fetch("alpha", KEY)
        store.put("alpha", KEY, 1)
        store.fetch("alpha", KEY)
        store.fetch("beta", OTHER_KEY)
        assert store.stats.hits == 1
        assert store.stats.misses == 2
        assert store.stats.stores == 1
        assert store.stats.by_stage["alpha"] == {"hits": 1, "misses": 1, "stores": 1}
        assert store.stats.by_stage["beta"]["misses"] == 1
        assert 0.0 < store.stats.hit_rate < 1.0


class TestStoreMaintenance:
    def test_in_memory_store_has_no_janitor_but_reports_stats(self):
        store = ArtifactStore()
        store.put("stage", KEY, 1)
        with pytest.raises(ValueError):
            store.janitor()
        snapshot = store.store_stats()
        assert snapshot.backend == "memory"
        assert snapshot.entries == 1

    def test_store_stats_snapshot_of_a_persistent_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("stage", KEY, "payload")
        store.fetch("stage", KEY)
        snapshot = store.store_stats()
        assert snapshot.backend == "pickle"
        assert snapshot.entries == 1
        assert snapshot.disk_bytes > 0
