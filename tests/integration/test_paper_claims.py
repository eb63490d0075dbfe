"""Qualitative reproduction of the paper's claims (shape, not absolute numbers).

Each test states the claim as the paper makes it and checks that the
reproduction's models and mapper reach the same conclusion.
"""

from __future__ import annotations

import pytest

from repro.arch import base_architecture, paper_architectures, rs_architecture, rsp_architecture
from repro.core import (
    HardwareCostModel,
    TimingModel,
    classify_components,
    ResourceClass,
)
from repro.arch.components import default_component_library
from repro.engine.runner import explore_domain
from repro.eval.metrics import execution_time_ns
from repro.kernels import get_kernel, paper_suite
from repro.mapping import RSPMapper


@pytest.fixture(scope="module")
def module_mapper():
    return RSPMapper()


@pytest.fixture(scope="module")
def cost():
    return HardwareCostModel()


@pytest.fixture(scope="module")
def timing():
    return TimingModel()


def test_claim_multiplier_is_the_critical_resource():
    """Table 1: the array multiplier dominates both area and delay."""
    classification = classify_components(default_component_library())
    assert classification["array_multiplier"] is ResourceClass.AREA_AND_DELAY_CRITICAL
    assert sum(1 for value in classification.values() if value.is_critical) == 1


def test_claim_area_reduction_up_to_about_forty_percent(cost):
    """Abstract: area reduced by up to 42.8% (RS#1)."""
    reductions = {
        spec.name: cost.area_reduction_percent(spec)
        for spec in paper_architectures()
        if spec.name != "Base"
    }
    best_design = max(reductions, key=lambda name: reductions[name])
    assert best_design == "RS#1"
    assert 33.0 <= reductions["RS#1"] <= 45.0


def test_claim_delay_reduction_up_to_about_a_third(timing):
    """Abstract: critical path reduced by up to 34.69% (RSP#1)."""
    reductions = {
        spec.name: timing.delay_reduction_percent(spec)
        for spec in paper_architectures()
        if spec.name != "Base"
    }
    best_design = max(reductions, key=lambda name: reductions[name])
    assert best_design == "RSP#1"
    assert 28.0 <= reductions["RSP#1"] <= 40.0


def test_claim_every_rs_and_rsp_design_is_cheaper_than_base(cost):
    """Equation 2's constraint holds for all eight sharing designs."""
    base_area = cost.array_area(base_architecture())
    for spec in paper_architectures():
        if spec.name == "Base":
            continue
        assert cost.array_area(spec) < base_area


def test_claim_rs_designs_slow_the_clock_rsp_designs_speed_it_up(timing):
    base_delay = timing.critical_path_ns(base_architecture())
    for design in range(1, 5):
        assert timing.critical_path_ns(rs_architecture(design)) > base_delay
        assert timing.critical_path_ns(rsp_architecture(design)) < base_delay


def test_claim_rsp_architecture_2_runs_the_whole_domain_without_stall(module_mapper):
    """Tables 4/5: RSP#2 supports all selected kernels without stall.

    The reproduction's 2D-FDCT packs multiplications more densely than the
    paper's mapping, leaving RSP#2 a few residual stall cycles there
    (documented in EXPERIMENTS.md); all other kernels are stall-free.
    """
    for kernel in paper_suite():
        result = module_mapper.map_kernel(kernel, rsp_architecture(2))
        if kernel.name == "2D-FDCT":
            assert result.stall_cycles <= 5
        else:
            assert result.stall_cycles == 0, kernel.name


def test_claim_rs1_lacks_multipliers_for_heavy_kernels(module_mapper):
    """Table 4/5: RS#1 shows stalls for State and 2D-FDCT."""
    for name in ("State", "2D-FDCT"):
        result = module_mapper.map_kernel(get_kernel(name), rs_architecture(1))
        assert result.stall_cycles > 0, name


def test_claim_rsp_utilises_shared_resources_better_than_rs(module_mapper):
    """Section 5.3: under the same sharing, RSP stalls no more than RS (2D-FDCT example)."""
    kernel = get_kernel("2D-FDCT")
    for design in (1, 2):
        rs_stalls = module_mapper.map_kernel(kernel, rs_architecture(design)).stall_cycles
        rsp_stalls = module_mapper.map_kernel(kernel, rsp_architecture(design)).stall_cycles
        assert rsp_stalls <= rs_stalls


def test_claim_sad_benefits_most_from_pipelining(module_mapper, timing):
    """Section 5.3: SAD (no multiplications) gains the most from the faster clock,
    more than the multiplication-heavy 2D-FDCT."""
    improvements = {}
    for name in ("SAD", "2D-FDCT", "MVM"):
        kernel = get_kernel(name)
        base_result = module_mapper.map_kernel(kernel, base_architecture())
        base_time = execution_time_ns(
            base_result.cycles, timing.critical_path_ns(base_architecture())
        )
        rsp_result = module_mapper.map_kernel(kernel, rsp_architecture(1))
        rsp_time = execution_time_ns(
            rsp_result.cycles, timing.critical_path_ns(rsp_architecture(1))
        )
        improvements[name] = 100.0 * (base_time - rsp_time) / base_time
    assert improvements["SAD"] >= improvements["2D-FDCT"]
    assert improvements["SAD"] == max(improvements.values())
    # And the SAD improvement is in the ballpark of the paper's 35.7%.
    assert 25.0 <= improvements["SAD"] <= 45.0


def test_claim_best_designs_are_rsp_architectures(module_mapper, timing):
    """Tables 4/5: the best per-kernel execution time is always on an RSP design,
    and for almost every kernel it is RSP#1 or RSP#2 (the paper's conclusion)."""
    winners = []
    for kernel in paper_suite():
        times = {}
        for spec in paper_architectures():
            result = module_mapper.map_kernel(kernel, spec)
            times[spec.name] = execution_time_ns(result.cycles, timing.critical_path_ns(spec))
        best = min((name for name in times if name != "Base"), key=lambda name: times[name])
        winners.append(best)
    assert all(winner.startswith("RSP") for winner in winners)
    in_first_two = sum(1 for winner in winners if winner in ("RSP#1", "RSP#2"))
    assert in_first_two >= len(winners) - 1


def test_claim_exploration_keeps_only_pareto_designs(module_mapper):
    """Section 4: the exploration rejects over-budget designs and keeps Pareto points."""
    outcome = explore_domain(module_mapper.pipeline, paper_suite()).result
    assert outcome.pareto
    # No Pareto member is dominated by another evaluated design.
    for member in outcome.pareto:
        for other in outcome.feasible:
            dominates_member = (
                other.area_slices <= member.area_slices
                and other.total_execution_time_ns <= member.total_execution_time_ns
                and (
                    other.area_slices < member.area_slices
                    or other.total_execution_time_ns < member.total_execution_time_ns
                )
            )
            assert not dominates_member
    # The selected design uses resource sharing (domain is multiplication heavy).
    assert outcome.selected is not None
    assert outcome.selected.parameters.uses_sharing
