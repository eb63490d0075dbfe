"""Tests for evaluation jobs, content hashing and the persistent cache."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro.arch.template import default_array_spec
from repro.core.cost_model import HardwareCostModel
from repro.core.exploration import RSPDesignSpaceExplorer
from repro.core.rsp_params import paper_parameters
from repro.core.stalls import CriticalOpIssue, ScheduleProfile
from repro.core.timing_model import TimingModel
from repro.engine.cache import EvaluationCache
from repro.engine.jobs import (
    SUITE_NAMES,
    CampaignSpec,
    EvaluationJob,
    evaluation_context_hash,
    hash_payload,
    suite_kernels,
)
from repro.errors import ExplorationError


def make_profiles(length: int = 10) -> dict:
    issues = tuple(
        CriticalOpIssue(cycle=cycle, row=index, col=index, iteration=index,
                        has_immediate_dependent=True)
        for cycle in range(3)
        for index in range(4)
    )
    return {
        "k": ScheduleProfile(kernel="k", length=length, critical_issues=issues, rows=8, cols=8)
    }


@pytest.fixture()
def context_hash():
    return evaluation_context_hash(
        make_profiles(), default_array_spec(), HardwareCostModel(), TimingModel()
    )


# ----------------------------------------------------------------------
# Content hashing
# ----------------------------------------------------------------------
def test_hash_payload_is_deterministic():
    payload = {"b": paper_parameters(2, pipelined=True), "a": [1, 2, 3]}
    assert hash_payload(payload) == hash_payload(payload)
    assert len(hash_payload(payload)) == 64


def test_context_hash_changes_with_profiles():
    first = evaluation_context_hash(
        make_profiles(10), default_array_spec(), HardwareCostModel(), TimingModel()
    )
    second = evaluation_context_hash(
        make_profiles(11), default_array_spec(), HardwareCostModel(), TimingModel()
    )
    assert first != second


def test_context_hash_changes_with_timing_calibration():
    base = evaluation_context_hash(
        make_profiles(), default_array_spec(), HardwareCostModel(), TimingModel()
    )
    recalibrated = evaluation_context_hash(
        make_profiles(),
        default_array_spec(),
        HardwareCostModel(),
        TimingModel(wiring_margin_ns=1.5),
    )
    assert base != recalibrated


def test_job_hash_depends_on_parameters_and_context(context_hash):
    job_a = EvaluationJob(paper_parameters(1, pipelined=False))
    job_b = EvaluationJob(paper_parameters(2, pipelined=False))
    assert job_a.content_hash(context_hash) != job_b.content_hash(context_hash)
    assert job_a.content_hash(context_hash) != job_a.content_hash("other-context")
    assert job_a.content_hash(context_hash) == EvaluationJob(
        paper_parameters(1, pipelined=False)
    ).content_hash(context_hash)


# ----------------------------------------------------------------------
# Campaign specs
# ----------------------------------------------------------------------
def test_campaign_spec_jobs_cover_the_grid():
    spec = CampaignSpec(suites=("dsp",), max_rows_shared=1, max_cols_shared=1)
    jobs = spec.jobs()
    assert len(jobs) == len(spec.candidate_grid())
    assert jobs[0].name == "Base"
    assert all(job.name is None for job in jobs[1:])


def test_campaign_spec_rejects_unknown_suite():
    with pytest.raises(ExplorationError):
        CampaignSpec(suites=("nonexistent",))
    with pytest.raises(ExplorationError):
        CampaignSpec(suites=())


def test_suite_kernels_known_and_unknown():
    for name in SUITE_NAMES:
        kernels = suite_kernels(name)
        assert kernels and all(kernel.name for kernel in kernels)
    with pytest.raises(ExplorationError):
        suite_kernels("bogus")


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def test_cache_round_trips_an_evaluation(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(2, pipelined=True))
    evaluation = explorer.evaluate(job.parameters, name=job.name)
    key = job.content_hash(context_hash)

    cache = EvaluationCache(tmp_path / "evals.jsonl")
    assert cache.get(key, job, explorer.array) is None
    cache.put(key, evaluation)

    reloaded = EvaluationCache(tmp_path / "evals.jsonl")
    assert len(reloaded) == 1
    restored = reloaded.get(key, job, explorer.array)
    assert restored is not None
    assert restored.area_slices == evaluation.area_slices
    assert restored.critical_path_ns == evaluation.critical_path_ns
    assert restored.total_estimated_cycles == evaluation.total_estimated_cycles
    assert restored.total_stall_cycles == evaluation.total_stall_cycles
    assert restored.architecture.name == evaluation.architecture.name
    assert restored.parameters == evaluation.parameters


def test_cache_stats_track_hits_and_misses(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(1, pipelined=False))
    key = job.content_hash(context_hash)
    cache = EvaluationCache(tmp_path / "evals.jsonl")

    cache.get(key, job, explorer.array)
    cache.put(key, explorer.evaluate(job.parameters))
    cache.get(key, job, explorer.array)
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1
    assert cache.stats.hit_rate == 0.5


def test_cache_skips_and_counts_corrupt_lines(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(1, pipelined=False))
    key = job.content_hash(context_hash)
    path = tmp_path / "evals.jsonl"

    cache = EvaluationCache(path)
    cache.put(key, explorer.evaluate(job.parameters))
    with path.open("a", encoding="utf-8") as handle:
        handle.write("{truncated json\n")
        handle.write(json.dumps({"key": "missing-fields"}) + "\n")
        handle.write("\n")  # blank lines are not corruption

    with pytest.warns(RuntimeWarning, match=r"skipped 2 corrupt line\(s\)") as record:
        reloaded = EvaluationCache(path)
    assert reloaded.corrupt_lines == 2
    assert len(reloaded) == 1
    assert reloaded.get(key, job, explorer.array) is not None
    assert [Path(warning.filename) for warning in record] == [Path(__file__)]

    # Opened through for_context, the warning still names the line that
    # opened the cache, and it says how to drop the corrupt line.
    opened = EvaluationCache.for_context(tmp_path / "campaign", context_hash)
    with opened.path.open("a", encoding="utf-8") as handle:
        handle.write("{torn json\n")
    with pytest.warns(RuntimeWarning, match="--compact") as record:
        EvaluationCache.for_context(tmp_path / "campaign", context_hash)
    assert [Path(warning.filename) for warning in record] == [Path(__file__)]


def test_cache_loads_clean_file_without_warning(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(2, pipelined=False))
    key = job.content_hash(context_hash)
    path = tmp_path / "evals.jsonl"
    EvaluationCache(path).put(key, explorer.evaluate(job.parameters))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = EvaluationCache(path)
    assert reloaded.corrupt_lines == 0


def test_in_memory_cache_needs_no_path(context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(3, pipelined=True))
    key = job.content_hash(context_hash)
    cache = EvaluationCache()
    cache.put(key, explorer.evaluate(job.parameters))
    assert key in cache
    assert cache.get(key, job, explorer.array) is not None


def test_for_context_creates_directory(tmp_path):
    cache = EvaluationCache.for_context(tmp_path / "nested" / "cache", "ab" * 32)
    assert cache.path.parent.is_dir()
    assert cache.path.name.startswith("evals-")


def test_cache_janitor_compacts_duplicates(tmp_path, context_hash):
    explorer = RSPDesignSpaceExplorer(make_profiles())
    job = EvaluationJob(paper_parameters(1, pipelined=True))
    key = job.content_hash(context_hash)
    cache = EvaluationCache(tmp_path / "evals.jsonl")
    cache.put(key, explorer.evaluate(job.parameters))
    line = (tmp_path / "evals.jsonl").read_text()
    with (tmp_path / "evals.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(line)  # a duplicate line from a racing writer

    report = EvaluationCache(tmp_path / "evals.jsonl").janitor().sweep()
    assert report.compaction.dropped_duplicates == 1
    assert len((tmp_path / "evals.jsonl").read_text().splitlines()) == 1
    assert EvaluationCache(tmp_path / "evals.jsonl").get(key, job, explorer.array) is not None
