"""Tests for the content-addressed artifact store."""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.arch import rsp_architecture
from repro.engine.artifacts import ARTIFACT_SUBDIR, ArtifactStore
from repro.engine.jobs import CampaignSpec
from repro.engine.runner import CampaignRunner
from repro.kernels import get_kernel
from repro.mapping import RSPMapper
from repro.utils.serialization import from_json, to_json


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


# ----------------------------------------------------------------------
# Corrupt artifacts in a campaign
# ----------------------------------------------------------------------
#: Ways an artifact file goes bad, from its good bytes.
CORRUPTIONS = {
    "garbage": lambda good: b"garbage\n",
    "empty": lambda good: b"",
    "truncated": lambda good: good[: len(good) // 2],
}

#: Report fields that differ between two runs of one campaign: timings,
#: and the store counters a corrupt entry moves.
_RUN_FIELDS = ("wall_seconds", "mapping_seconds", "profile_seconds", "explore_seconds")
_COUNTER_FIELDS = ("artifact_hits", "artifact_misses", "mapping_stages", "store_stats")


def _answers(report):
    payload = from_json(to_json(report))
    for block in [payload] + payload["suites"]:
        for name in _RUN_FIELDS + _COUNTER_FIELDS:
            block.pop(name, None)
    return payload


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_campaign_recomputes_a_corrupt_artifact(tmp_path, corruption):
    spec = CampaignSpec(name="h264", suites=("h264",), max_rows_shared=1, max_cols_shared=1)
    clean, _ = CampaignRunner(spec, artifact_dir=tmp_path).run()
    path = sorted((tmp_path / ARTIFACT_SUBDIR / "extract_profile").glob("*.pkl"))[0]
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.warns(RuntimeWarning, match="corrupt artifact extract_profile/"):
        report, _ = CampaignRunner(spec, artifact_dir=tmp_path).run()
    assert report.store_stats["artifacts"].corrupt == 1
    assert report.artifact_misses == 1
    assert _answers(report) == _answers(clean)


def test_corrupt_artifact_warning_names_the_caller(tmp_path):
    """The warning names the line that asked for the mapping, not a line
    of the store, the stage executor or the pipeline."""
    kernel = get_kernel("MVM")
    RSPMapper(store=ArtifactStore(tmp_path)).base_schedule(kernel)
    path = next((tmp_path / ARTIFACT_SUBDIR / "base_schedule").glob("*.pkl"))
    path.write_bytes(b"garbage\n")
    mapper = RSPMapper(store=ArtifactStore(tmp_path))
    with pytest.warns(RuntimeWarning, match="corrupt artifact base_schedule/") as record:
        mapper.map_kernel(kernel)
    assert [Path(warning.filename) for warning in record] == [Path(__file__)]


class _ShortColumnSchedule:
    """Pickles as ``schedule`` with its cycle column cut by five entries."""

    def __init__(self, schedule):
        self.schedule = schedule

    def __reduce__(self):
        restore, (architecture, kernel_name, operation_columns, entry_columns) = (
            self.schedule.__reduce__()
        )
        cycles, *rest = entry_columns
        return restore, (architecture, kernel_name, operation_columns, [cycles[:-5], *rest])


def test_a_stored_schedule_with_a_short_column_is_recomputed(tmp_path):
    kernel = get_kernel("MVM")
    target = rsp_architecture(1)
    clean = RSPMapper(store=ArtifactStore(tmp_path)).map_kernel(kernel, target)
    path = next((tmp_path / ARTIFACT_SUBDIR / "base_schedule").glob("*.pkl"))
    path.write_bytes(pickle.dumps(_ShortColumnSchedule(clean.base_schedule)))
    store = ArtifactStore(tmp_path)
    with pytest.warns(RuntimeWarning, match="corrupt artifact base_schedule/"):
        result = RSPMapper(store=store).map_kernel(kernel, target)
    assert store.stats.corrupt == 1
    assert (len(result.base_schedule), result.base_schedule.length) == (256, 17)
    for got, expected in (
        (result.base_schedule, clean.base_schedule),
        (result.schedule, clean.schedule),
    ):
        assert pickle.dumps(got) == pickle.dumps(expected)
    assert (result.cycles, result.stall_cycles) == (clean.cycles, clean.stall_cycles)
