"""Tests for the evaluation engine: waves, cache integration, early reject."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchEvaluator
from repro.core.exploration import RSPDesignSpaceExplorer
from repro.core.rsp_params import enumerate_design_space, paper_parameters
from repro.core.stalls import CriticalOpIssue, ScheduleProfile
from repro.engine.cache import EvaluationCache
from repro.engine.executor import (
    EvaluationEngine,
    ExecutorConfig,
    run_exploration,
)
from repro.engine.jobs import EvaluationJob
from repro.errors import ExplorationError


def synthetic_profiles() -> dict:
    heavy_issues = [
        CriticalOpIssue(cycle=cycle, row=index % 8, col=index // 8, iteration=index,
                        has_immediate_dependent=True)
        for cycle in range(4)
        for index in range(16)
    ]
    heavy = ScheduleProfile(kernel="heavy", length=12, critical_issues=tuple(heavy_issues),
                            rows=8, cols=8)
    light = ScheduleProfile(kernel="light", length=20, critical_issues=(), rows=8, cols=8)
    return {"heavy": heavy, "light": light}


@pytest.fixture(scope="module")
def explorer():
    return RSPDesignSpaceExplorer(synthetic_profiles())


@pytest.fixture(scope="module")
def serial_reference(explorer):
    return run_exploration(explorer, config=ExecutorConfig()).result


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_executor_config_validation():
    with pytest.raises(ExplorationError):
        ExecutorConfig(chunk_size=0)


# ----------------------------------------------------------------------
# Cache integration
# ----------------------------------------------------------------------
def test_second_run_is_fully_cached(explorer, tmp_path):
    cache = EvaluationCache(tmp_path / "evals.jsonl")
    first = run_exploration(explorer, cache=cache)
    assert first.stats.cache_hits == 0
    assert first.stats.cache_misses > 0

    warm = EvaluationCache(tmp_path / "evals.jsonl")
    second = run_exploration(explorer, cache=warm)
    assert second.stats.cache_misses == 0
    assert second.stats.cache_hits == first.stats.cache_misses
    assert second.stats.cache_hit_rate == 1.0
    assert second.result.selected.parameters == first.result.selected.parameters
    assert [e.area_slices for e in second.result.evaluated] == [
        e.area_slices for e in first.result.evaluated
    ]


def test_cache_is_shared_across_overlapping_grids(explorer, tmp_path):
    cache = EvaluationCache(tmp_path / "evals.jsonl")
    small = enumerate_design_space(max_rows_shared=1, max_cols_shared=1)
    run_exploration(explorer, candidates=small, cache=cache)

    large = enumerate_design_space(max_rows_shared=2, max_cols_shared=2)
    outcome = run_exploration(explorer, candidates=large, cache=cache)
    # Every candidate of the small grid (plus the base point) is a hit.
    assert outcome.stats.cache_hits >= len(small)


def test_evaluate_job_uses_cache(explorer, tmp_path):
    engine = EvaluationEngine(explorer, cache=EvaluationCache(tmp_path / "evals.jsonl"))
    job = EvaluationJob(paper_parameters(2, pipelined=True))
    first = engine.evaluate_job(job)
    second = engine.evaluate_job(job)
    assert engine.cache.stats.hits == 1
    assert first.area_slices == second.area_slices


# ----------------------------------------------------------------------
# Early reject
# ----------------------------------------------------------------------
def test_early_reject_preserves_front_and_selection(explorer, serial_reference):
    outcome = run_exploration(explorer, early_reject=True)
    assert outcome.stats.early_rejected == len(outcome.rejected)
    assert [e.parameters for e in outcome.result.pareto] == [
        e.parameters for e in serial_reference.pareto
    ]
    assert outcome.result.selected.parameters == serial_reference.selected.parameters
    # Rejected candidates are genuinely dominated: their exact evaluation is
    # beaten by a feasible point of the reference run.
    reference_by_parameters = {
        e.parameters: e for e in serial_reference.evaluated
    }
    for parameters in outcome.rejected:
        exact = explorer.evaluate(parameters)
        assert any(
            feasible.area_slices <= exact.area_slices
            and feasible.total_execution_time_ns < exact.total_execution_time_ns
            for feasible in serial_reference.feasible
        ), parameters
    assert len(outcome.result.evaluated) + len(outcome.rejected) == len(
        serial_reference.evaluated
    )
    assert reference_by_parameters  # sanity: reference evaluated something


def test_stats_account_for_every_job(explorer):
    outcome = run_exploration(explorer, config=ExecutorConfig(chunk_size=5))
    stats = outcome.stats
    non_base = [c for c in enumerate_design_space() if c.kind != "base"]
    # Distinct jobs: the non-base candidates plus the single base point
    # ("base" entries in the candidate list reuse the one evaluation).
    assert stats.total_jobs == len(non_base) + 1
    # No cache, no reject: every distinct job is evaluated exactly once.
    assert stats.evaluated == stats.total_jobs
    assert stats.wall_seconds > 0


def test_cache_hits_feed_the_reject_frontier(explorer, tmp_path):
    cache = EvaluationCache(tmp_path / "evals.jsonl")
    small = enumerate_design_space(max_rows_shared=1, max_cols_shared=1)
    run_exploration(explorer, candidates=small, cache=cache)

    large = enumerate_design_space(max_rows_shared=2, max_cols_shared=2)
    cold = run_exploration(explorer, candidates=large, early_reject=True)
    warm = run_exploration(explorer, candidates=large, cache=cache, early_reject=True)
    # Cached feasible points enter the frontier before any dispatch, so the
    # partially warm run prunes at least as hard as the cold one, and both
    # agree with the exact sweep on the outcome.
    assert warm.stats.early_rejected >= cold.stats.early_rejected
    exact = run_exploration(explorer, candidates=large)
    assert warm.result.selected.parameters == exact.result.selected.parameters
    assert [e.parameters for e in warm.result.pareto] == [
        e.parameters for e in exact.result.pareto
    ]


# ----------------------------------------------------------------------
# Batch path
# ----------------------------------------------------------------------
def test_batch_path_engages_and_matches_scalar(explorer, scalar_evaluation):
    assert isinstance(EvaluationEngine(explorer).batch_evaluator(), BatchEvaluator)
    with scalar_evaluation():
        scalar = run_exploration(explorer, config=ExecutorConfig(chunk_size=3))
    batch = run_exploration(explorer, config=ExecutorConfig(chunk_size=3))
    assert batch.stats.evaluated == scalar.stats.evaluated
    assert batch.stats.waves == scalar.stats.waves
    # Full dataclass equality: same parameters, architectures, floats and
    # stall dictionaries — the batch path is bit-identical, not just close.
    assert batch.result.evaluated == scalar.result.evaluated
    assert batch.result.feasible == scalar.result.feasible
    assert batch.result.pareto == scalar.result.pareto
    assert batch.result.selected == scalar.result.selected


def test_batch_path_skips_cache_hits(explorer, tmp_path, scalar_evaluation):
    cache = EvaluationCache(tmp_path / "evals.jsonl")
    with scalar_evaluation():
        cold = run_exploration(explorer, cache=cache)
    assert cold.stats.evaluated == cold.stats.total_jobs > 1

    warm = EvaluationCache(tmp_path / "evals.jsonl")
    second = run_exploration(explorer, cache=warm)
    # A fully warm run computes nothing: the batch path only ever sees
    # cache misses, and the scalar oracle's records serve it unchanged.
    assert second.stats.evaluated == 0
    assert second.result.evaluated == cold.result.evaluated


def test_batch_path_with_early_reject_matches_scalar(explorer, scalar_evaluation):
    with scalar_evaluation():
        scalar = run_exploration(explorer, early_reject=True)
    batch = run_exploration(explorer, early_reject=True)
    assert batch.result.pareto == scalar.result.pareto
    assert batch.result.selected == scalar.result.selected
    assert batch.rejected == scalar.rejected
    assert batch.stats.early_rejected == scalar.stats.early_rejected
