"""Tests for the wave evaluator against its scalar oracle."""

from __future__ import annotations

import pytest

from repro.core.batch import BatchEvaluator
from repro.core.exploration import RSPDesignSpaceExplorer
from repro.core.rsp_params import RSPParameters, base_parameters, enumerate_design_space
from repro.core.stalls import CriticalOpIssue, ScheduleProfile
from repro.errors import ExplorationError


def dense_profiles() -> dict:
    """Profiles with real carry pressure so RS stall walks actually run."""
    crowded = [
        CriticalOpIssue(
            cycle=cycle,
            row=index % 3,
            col=index % 2,
            iteration=index,
            has_immediate_dependent=index % 2 == 0,
        )
        for cycle in range(5)
        for index in range(12)
    ]
    sparse = [
        CriticalOpIssue(cycle=2 * k, row=k % 8, col=(k + 1) % 8, iteration=k)
        for k in range(6)
    ]
    return {
        "crowded": ScheduleProfile(
            kernel="crowded", length=9, critical_issues=tuple(crowded), rows=8, cols=8
        ),
        "sparse": ScheduleProfile(
            kernel="sparse", length=15, critical_issues=tuple(sparse), rows=8, cols=8
        ),
        "empty": ScheduleProfile(
            kernel="empty", length=7, critical_issues=(), rows=8, cols=8
        ),
    }


@pytest.fixture(scope="module")
def explorer():
    return RSPDesignSpaceExplorer(dense_profiles())


@pytest.fixture(scope="module")
def evaluator(explorer):
    return BatchEvaluator(
        explorer.profiles,
        array=explorer.array,
        cost_model=explorer.cost_model,
        timing_model=explorer.timing_model,
    )


@pytest.fixture(scope="module")
def grid():
    return enumerate_design_space(
        max_rows_shared=4, max_cols_shared=4, stage_options=(1, 2, 3)
    )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_requires_profiles():
    with pytest.raises(ExplorationError):
        BatchEvaluator({})


# ----------------------------------------------------------------------
# Bit-identical equivalence with the scalar oracle
# ----------------------------------------------------------------------
def test_evaluate_matches_scalar_exactly(explorer, evaluator, grid):
    scalar = [explorer.evaluate(candidate) for candidate in grid]
    vectorized = evaluator.evaluate(grid)
    assert len(scalar) == len(vectorized)
    for expected, actual in zip(scalar, vectorized):
        # Dataclass equality covers parameters, the architecture spec, the
        # exact floats and the whole stall dictionary.
        assert actual == expected
        assert actual.area_slices == expected.area_slices  # bitwise, not approx
        assert actual.critical_path_ns == expected.critical_path_ns
        assert actual.total_estimated_cycles == expected.total_estimated_cycles
        assert actual.total_execution_time_ns == expected.total_execution_time_ns


def test_evaluate_honours_names(explorer, evaluator):
    candidates = [base_parameters(), RSPParameters(shared_resources=("array_multiplier",), rows_shared=2)]
    names = ["Base", "RS-two-rows"]
    vectorized = evaluator.evaluate(candidates, names=names)
    scalar = [explorer.evaluate(c, name=n) for c, n in zip(candidates, names)]
    assert vectorized == scalar
    assert [e.architecture.name for e in vectorized] == names
    for evaluation in vectorized:
        for estimate in evaluation.stall_estimates.values():
            assert estimate.architecture == evaluation.architecture.name
