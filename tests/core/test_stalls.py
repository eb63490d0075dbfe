"""Tests for the upper-bound RS/RP stall estimator."""

from __future__ import annotations

import pytest

from repro.arch import base_architecture, rs_architecture, rsp_architecture
from repro.core.stalls import CriticalOpIssue, ScheduleProfile, StallEstimator
from repro.errors import ExplorationError


def make_profile(issues, length=10, kernel="k") -> ScheduleProfile:
    return ScheduleProfile(
        kernel=kernel,
        length=length,
        critical_issues=tuple(issues),
        rows=8,
        cols=8,
    )


def burst_profile(mults_in_cycle: int, cycle: int = 2, rows: int = 8) -> ScheduleProfile:
    """``mults_in_cycle`` multiplications all issued in the same cycle, spread over rows."""
    issues = [
        CriticalOpIssue(cycle=cycle, row=index % rows, col=index // rows, iteration=index,
                        has_immediate_dependent=True)
        for index in range(mults_in_cycle)
    ]
    return make_profile(issues)


def test_profile_validation():
    with pytest.raises(ExplorationError):
        ScheduleProfile(kernel="k", length=0, critical_issues=(), rows=8, cols=8)
    with pytest.raises(ExplorationError):
        ScheduleProfile(kernel="k", length=1, critical_issues=(), rows=0, cols=8)


def test_profile_max_per_cycle_and_grouping():
    profile = burst_profile(6)
    assert set(profile.issues_by_cycle()) == {2}
    assert len(profile.issues_by_cycle()[2]) == 6


def test_no_stalls_on_base_architecture():
    estimator = StallEstimator()
    estimate = estimator.estimate(burst_profile(16), base_architecture())
    assert estimate.rs_stalls == 0
    assert estimate.rp_stalls == 0
    assert estimate.estimated_cycles == 10


def test_rs_stalls_zero_when_capacity_sufficient():
    estimator = StallEstimator()
    # 8 mults spread one per row, one shared multiplier per row -> fits.
    estimate = estimator.estimate(burst_profile(8), rs_architecture(1))
    assert estimate.rs_stalls == 0


def test_rs_stalls_grow_when_capacity_lacking():
    estimator = StallEstimator()
    # 16 mults (two per row) but only one shared multiplier per row.
    profile = burst_profile(16)
    rs1 = estimator.estimate_rs_stalls(profile, rs_architecture(1))
    rs2 = estimator.estimate_rs_stalls(profile, rs_architecture(2))
    assert rs1 >= 1
    assert rs2 == 0
    assert rs1 >= rs2


def test_rs_stalls_use_column_units_as_fallback():
    estimator = StallEstimator()
    # 24 mults in one cycle: three per row, and the third multiplication of
    # row r sits in column r so the overflow spreads over all columns.
    issues = []
    for row in range(8):
        issues.append(CriticalOpIssue(cycle=0, row=row, col=0, iteration=row))
        issues.append(CriticalOpIssue(cycle=0, row=row, col=1, iteration=8 + row))
        issues.append(CriticalOpIssue(cycle=0, row=row, col=row, iteration=16 + row))
    profile = make_profile(issues)
    # RS#3 provides two per row plus one per column: 2 row units absorb two
    # mults per row, the third lands on its column's unit.
    assert estimator.estimate_rs_stalls(profile, rs_architecture(3)) == 0
    assert estimator.estimate_rs_stalls(profile, rs_architecture(2)) >= 1


def test_rp_stalls_require_pipelining_and_dependents():
    estimator = StallEstimator()
    profile = burst_profile(4)
    assert estimator.estimate_rp_stalls(profile, rs_architecture(2)) == 0
    assert estimator.estimate_rp_stalls(profile, rsp_architecture(2)) == 1


def test_rp_stalls_consecutive_cycles_counted_once():
    estimator = StallEstimator()
    issues = [
        CriticalOpIssue(cycle=cycle, row=0, col=0, iteration=cycle, has_immediate_dependent=True)
        for cycle in (2, 3, 4, 8)
    ]
    profile = make_profile(issues)
    # Two runs of consecutive multiplication cycles: {2,3,4} and {8}.
    assert estimator.estimate_rp_stalls(profile, rsp_architecture(2)) == 2
    # A deeper pipeline pays (stages - 1) per run.
    assert estimator.estimate_rp_stalls(profile, rsp_architecture(2, stages=3)) == 4


def test_rp_stalls_zero_without_immediate_dependents():
    estimator = StallEstimator()
    issues = [CriticalOpIssue(cycle=1, row=0, col=0, iteration=0, has_immediate_dependent=False)]
    assert estimator.estimate_rp_stalls(make_profile(issues), rsp_architecture(1)) == 0


def test_total_estimate_combines_both_kinds():
    estimator = StallEstimator()
    profile = burst_profile(16)
    estimate = estimator.estimate(profile, rsp_architecture(1))
    assert estimate.total_stalls == estimate.rs_stalls + estimate.rp_stalls
    assert estimate.estimated_cycles == profile.length + estimate.total_stalls
    assert estimate.architecture == "RSP#1"


def test_rs_estimate_is_upper_bound_monotone_in_capacity():
    estimator = StallEstimator()
    profile = burst_profile(32)
    stalls = [
        estimator.estimate_rs_stalls(profile, rs_architecture(design)) for design in range(1, 5)
    ]
    assert stalls == sorted(stalls, reverse=True)
