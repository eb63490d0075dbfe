"""Tests for the RSP design-space exploration engine."""

from __future__ import annotations

import pytest

from repro.core.exploration import (
    DesignPointEvaluation,
    ExplorationConstraints,
    ExplorationResult,
    RSPDesignSpaceExplorer,
)
from repro.core.rsp_params import enumerate_design_space, paper_parameters
from repro.core.stalls import CriticalOpIssue, ScheduleProfile
from repro.engine.executor import run_exploration
from repro.errors import ExplorationError


def synthetic_profiles() -> dict:
    """Two synthetic kernels: one multiplication-heavy, one without mults."""
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


def test_explorer_requires_profiles():
    with pytest.raises(ExplorationError):
        RSPDesignSpaceExplorer({})


def test_evaluate_single_candidate(explorer):
    evaluation = explorer.evaluate(paper_parameters(2, pipelined=True), name="RSP#2")
    assert isinstance(evaluation, DesignPointEvaluation)
    assert evaluation.architecture.name == "RSP#2"
    assert set(evaluation.stall_estimates) == {"heavy", "light"}
    assert evaluation.total_estimated_cycles >= 12 + 20
    assert evaluation.total_execution_time_ns > 0


def test_explore_default_sweep(explorer):
    result = run_exploration(explorer).result
    assert isinstance(result, ExplorationResult)
    assert len(result.evaluated) == len(enumerate_design_space())
    # Every feasible design is cheaper than the base (paper Eq. 2 constraint).
    base_area = result.base.area_slices
    for evaluation in result.feasible:
        if evaluation.parameters.kind != "base":
            assert evaluation.area_slices < base_area
    assert result.pareto
    assert result.selected is not None
    assert result.selected in result.pareto


def test_pareto_members_are_feasible(explorer):
    result = run_exploration(explorer).result
    feasible_names = {evaluation.architecture.name for evaluation in result.feasible}
    for evaluation in result.pareto:
        assert evaluation.architecture.name in feasible_names


def test_selected_design_uses_sharing(explorer):
    """With mult-heavy kernels the knee point is an RS/RSP design, not base."""
    result = run_exploration(explorer).result
    assert result.selected.parameters.kind in ("rs", "rsp")


def test_constraints_restrict_feasible_set(explorer):
    tight = ExplorationConstraints(max_stall_cycles=0)
    result = run_exploration(explorer, constraints=tight).result
    for evaluation in result.feasible:
        assert evaluation.total_stall_cycles == 0


@pytest.mark.parametrize("value", [-1, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize(
    "field", ["max_area_slices", "max_execution_time_ratio", "max_stall_cycles"]
)
def test_constraints_reject_negative_or_nan_bounds(field, value):
    with pytest.raises(ExplorationError, match=field):
        ExplorationConstraints(**{field: value})


def test_execution_time_ratio_constraint(explorer):
    # Disallow any slowdown at all: designs slower than the base are rejected.
    constrained = run_exploration(
        explorer, constraints=ExplorationConstraints(max_execution_time_ratio=1.0)
    ).result
    base_time = constrained.base.total_execution_time_ns
    for evaluation in constrained.feasible:
        assert evaluation.total_execution_time_ns <= base_time * 1.0 + 1e-9


def test_by_name_lookup(explorer):
    result = run_exploration(explorer).result
    base_evaluation = result.by_name("Base")
    assert base_evaluation.parameters.kind == "base"
    with pytest.raises(ExplorationError):
        result.by_name("nonexistent")


def test_summary_rows_shape(explorer):
    result = run_exploration(explorer).result
    rows = result.summary_rows()
    assert len(rows) == len(result.evaluated)
    assert all(len(row) == 9 for row in rows)
    selected_flags = [row[-1] for row in rows]
    assert sum(1 for flag in selected_flags if flag) == 1


def test_explicit_candidates_only(explorer):
    candidates = [paper_parameters(design, pipelined=True) for design in range(1, 5)]
    result = run_exploration(explorer, candidates).result
    assert len(result.evaluated) == 4
    assert all(evaluation.parameters.kind == "rsp" for evaluation in result.evaluated)
