"""Tests for the end-to-end RSP design flow (paper Figure 7)."""

from __future__ import annotations

import pytest

from repro.core import ExplorationConstraints
from repro.core.rsp_params import paper_parameters
from repro.errors import ExplorationError
from repro.flow import FlowOutcome, run_rsp_flow
from repro.kernels import get_kernel


@pytest.fixture(scope="module")
def small_domain_outcome():
    """Flow over a small multiplication-heavy domain (kept small for speed)."""
    kernels = [get_kernel("ICCG"), get_kernel("MVM"), get_kernel("Hydro")]
    return run_rsp_flow(kernels)


def test_flow_requires_kernels():
    with pytest.raises(ExplorationError):
        run_rsp_flow([])


def test_flow_produces_all_stages(small_domain_outcome):
    outcome = small_domain_outcome
    assert isinstance(outcome, FlowOutcome)
    assert outcome.base_architecture.is_base
    assert set(outcome.base_mappings) == {"ICCG", "MVM", "Hydro"}
    assert set(outcome.profiles) == {"ICCG", "MVM", "Hydro"}
    assert outcome.exploration.evaluated


def test_flow_selects_a_sharing_design_and_remaps(small_domain_outcome):
    outcome = small_domain_outcome
    assert outcome.selected_architecture is not None
    assert outcome.selected_name != "Base"
    assert set(outcome.rsp_mappings) == set(outcome.base_mappings)
    for name, result in outcome.rsp_mappings.items():
        assert result.architecture.name == outcome.selected_name
        assert result.cycles >= outcome.base_mappings[name].cycles


def test_flow_totals(small_domain_outcome):
    outcome = small_domain_outcome
    assert outcome.total_base_cycles() == sum(
        result.cycles for result in outcome.base_mappings.values()
    )
    assert outcome.total_selected_cycles() >= outcome.total_base_cycles()


def test_flow_with_explicit_candidates():
    kernels = [get_kernel("ICCG")]
    candidates = [paper_parameters(2, pipelined=True)]
    outcome = run_rsp_flow(kernels, candidates=candidates)
    assert len(outcome.exploration.evaluated) == 1
    assert outcome.selected_name in ("RSP#2", "rsp(shr=2,shc=0,stages=2)")


def test_flow_with_impossible_stall_constraint_falls_back_to_base():
    """When every sharing candidate violates the constraints, nothing is selected."""
    kernels = [get_kernel("ICCG")]
    candidates = [paper_parameters(1, pipelined=True)]
    outcome = run_rsp_flow(
        kernels,
        candidates=candidates,
        constraints=ExplorationConstraints(max_execution_time_ratio=0.01),
    )
    assert outcome.selected_architecture is None
    assert outcome.selected_name == "Base"
    assert outcome.rsp_mappings == {}


def test_flow_base_only_domain_can_select_base():
    """A domain with no multiplications still completes; base may remain selected."""
    outcome = run_rsp_flow([get_kernel("SAD")])
    assert outcome.exploration.selected is not None
    # Whatever is selected, the flow's bookkeeping stays consistent.
    if outcome.selected_architecture is None:
        assert outcome.rsp_mappings == {}
        assert outcome.total_selected_cycles() == outcome.total_base_cycles()


def test_flow_with_artifact_store_is_identical_and_warm(tmp_path):
    """A persistent artifact store leaves the flow's outputs unchanged."""
    from repro.engine.artifacts import ArtifactStore

    kernels = [get_kernel("ICCG")]
    plain = run_rsp_flow(kernels)
    cold = run_rsp_flow(kernels, artifact_store=ArtifactStore(tmp_path))
    warm = run_rsp_flow(kernels, artifact_store=ArtifactStore(tmp_path))

    for outcome in (cold, warm):
        assert outcome.selected_name == plain.selected_name
        assert outcome.profiles == plain.profiles
        assert outcome.total_selected_cycles() == plain.total_selected_cycles()


def test_explorer_for_kernels_matches_flow_profiles(tmp_path):
    """``explore_domain`` profiles a kernel set through its pipeline's store."""
    from repro.engine.artifacts import ArtifactStore
    from repro.engine.runner import explore_domain
    from repro.mapping.pipeline import MappingPipeline

    kernels = [get_kernel("ICCG"), get_kernel("MVM")]
    cold = explore_domain(MappingPipeline(store=ArtifactStore(tmp_path)), kernels)
    assert set(cold.profiles) == {"ICCG", "MVM"}
    assert cold.profiles == run_rsp_flow(kernels).profiles
    # A second pipeline on the same directory fetches identical profiles.
    warm_pipeline = MappingPipeline(store=ArtifactStore(tmp_path))
    warm = explore_domain(warm_pipeline, kernels)
    assert warm.profiles == cold.profiles
    assert warm_pipeline.store.stats.misses == 0


#: What ``run_rsp_flow`` finds per suite: (selected design, total base
#: cycles, total selected cycles).  A change that moves one on purpose
#: updates these literals in its own diff.
RECORDED_FLOWS = {
    "paper": ("rsp(shr=0,shc=1,stages=2)", 183, 243),
    "h264": ("rsp(shr=0,shc=1,stages=2)", 22, 31),
    "livermore": ("rsp(shr=0,shc=1,stages=2)", 77, 102),
    "dsp": ("rsp(shr=1,shc=0,stages=2)", 106, 133),
}


@pytest.mark.parametrize("suite", sorted(RECORDED_FLOWS))
def test_flow_finds_the_recorded_answers(suite):
    from repro.engine.jobs import suite_kernels

    outcome = run_rsp_flow(suite_kernels(suite))
    found = (outcome.selected_name, outcome.total_base_cycles(), outcome.total_selected_cycles())
    assert found == RECORDED_FLOWS[suite]


def _mapping_facts(result):
    return (
        result.kernel,
        result.architecture,
        result.cycles,
        result.stall_cycles,
        result.base_cycles,
        result.schedule.length,
        list(result.schedule.operations()),
    )


def test_explore_domain_reads_the_pipelines_base_array_throughout():
    """A base with one read bus per row is profiled and explored on that
    one array, and the same pipeline maps the selection onto it.  The
    profiles add up to its 116 base cycles for MVM, Hydro and SAD (the
    paper's two-bus array takes 71)."""
    from repro.arch.array import ArraySpec
    from repro.arch.bus import RowBusSpec
    from repro.arch.template import ArchitectureSpec
    from repro.engine.runner import explore_domain
    from repro.mapping.mapper import RSPMapper

    base = ArchitectureSpec(
        name="Base", array=ArraySpec(row_buses=RowBusSpec(read_buses=1, write_buses=1))
    )
    kernels = [get_kernel("MVM"), get_kernel("Hydro"), get_kernel("SAD")]
    pipeline = RSPMapper(base=base).pipeline
    domain = explore_domain(pipeline, kernels)

    selected = domain.result.selected
    assert {design.architecture.array for design in domain.result.evaluated} == {base.array}
    assert selected.architecture.array == base.array
    assert sum(profile.length for profile in domain.profiles.values()) == 116
    assert selected.parameters.describe() == "rs(shr=0,shc=1,stages=1)"
    fresh = RSPMapper(base=base)
    for kernel in kernels:
        mapped = pipeline.run(kernel, selected.architecture)
        assert mapped.schedule.architecture.array == base.array
        assert _mapping_facts(mapped) == _mapping_facts(
            fresh.map_kernel(kernel, selected.architecture)
        )
