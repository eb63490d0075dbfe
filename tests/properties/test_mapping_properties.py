"""Property-based tests on the mapper and rearrangement invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import base_architecture, rs_architecture, rsp_architecture
from repro.ir import OpType
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.rearrange import evaluate_rearrangement, rearrange_schedule
from repro.sim import ArraySimulator, DataMemory

from dfg_strategies import random_kernel_dfg


architectures = st.sampled_from(
    [
        base_architecture(),
        rs_architecture(1),
        rs_architecture(2),
        rs_architecture(3),
        rs_architecture(4),
        rsp_architecture(1),
        rsp_architecture(2),
        rsp_architecture(4),
        rsp_architecture(2, stages=3),
    ]
)


@given(random_kernel_dfg(), architectures)
@settings(max_examples=25, deadline=None)
def test_scheduler_always_produces_valid_schedules(dfg, architecture):
    schedule = LoopPipeliningScheduler(architecture).schedule(dfg)
    schedule.validate(dfg)
    scheduled_count = sum(
        1 for op in dfg.operations() if op.optype not in (OpType.CONST, OpType.NOP)
    )
    assert len(schedule) == scheduled_count
    assert schedule.length >= dfg.depth()


@given(random_kernel_dfg(), architectures)
@settings(max_examples=20, deadline=None)
def test_rearrangement_is_valid_and_never_faster_than_base(dfg, target):
    base_schedule = LoopPipeliningScheduler(base_architecture()).schedule(dfg)
    rearranged = rearrange_schedule(base_schedule, dfg, target)
    rearranged.validate(dfg)
    assert rearranged.length >= base_schedule.length
    for entry in base_schedule.operations():
        assert rearranged.get(entry.name).position == entry.position
        assert rearranged.get(entry.name).cycle >= entry.cycle


@given(random_kernel_dfg(), architectures)
@settings(max_examples=20, deadline=None)
def test_stall_accounting_is_non_negative_and_additive(dfg, target):
    base_schedule = LoopPipeliningScheduler(base_architecture()).schedule(dfg)
    result = evaluate_rearrangement(base_schedule, dfg, target)
    assert result.stall_cycles >= 0
    assert result.pipeline_overhead_cycles >= 0
    assert result.cycles == result.base_cycles + result.pipeline_overhead_cycles + result.stall_cycles


@given(random_kernel_dfg())
@settings(max_examples=15, deadline=None)
def test_simulation_results_are_architecture_independent(dfg):
    """Sharing/pipelining changes timing, never the computed values."""
    memory_values = {"x": list(range(1, 64))}
    reference = None
    for architecture in (base_architecture(), rs_architecture(1), rsp_architecture(2)):
        schedule = LoopPipeliningScheduler(architecture).schedule(dfg)
        simulation = ArraySimulator().run(schedule, dfg, DataMemory(memory_values))
        values = simulation.memory.as_list("out")
        if reference is None:
            reference = values
        assert values == reference


@given(random_kernel_dfg(), st.integers(min_value=2, max_value=4))
@settings(max_examples=15, deadline=None)
def test_deeper_pipelines_never_shorten_the_schedule(dfg, stages):
    shallow = LoopPipeliningScheduler(rsp_architecture(4, stages=2)).schedule(dfg)
    deep = LoopPipeliningScheduler(rsp_architecture(4, stages=stages)).schedule(dfg)
    if stages >= 2:
        assert deep.length >= shallow.length or stages == 2
