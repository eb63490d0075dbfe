"""Tests for the loop-pipelining list scheduler."""

from __future__ import annotations

import pytest

from repro.arch import (
    ArchitectureSpec,
    ArraySpec,
    RowBusSpec,
    base_architecture,
    rs_architecture,
    rsp_architecture,
)
from repro.errors import SchedulingError
from repro.ir import DFG, DFGBuilder, OpType
from repro.kernels import get_kernel, matrix_multiplication
from repro.mapping.loop_pipelining import LoopPipeliningScheduler


def chain_dfg(length: int = 5) -> DFG:
    builder = DFGBuilder("chain")
    value = builder.load("x", 0)
    for _ in range(length):
        value = builder.shift(value, 1)
    builder.store("y", 0, value)
    return builder.build()


def parallel_macs(count: int) -> DFG:
    builder = DFGBuilder("macs")
    for index in range(count):
        builder.set_iteration(index)
        a = builder.load("x", index)
        b = builder.load("y", index)
        product = builder.mul(a, b)
        builder.store("z", index, product)
    return builder.build()


def test_empty_dfg_gives_empty_schedule(base_arch):
    schedule = LoopPipeliningScheduler(base_arch).schedule(DFG("empty"))
    assert schedule.length == 0
    assert len(schedule) == 0


def test_serial_chain_length(base_arch):
    dfg = chain_dfg(5)
    schedule = LoopPipeliningScheduler(base_arch).schedule(dfg)
    schedule.validate(dfg)
    # load + 5 shifts + store, strictly serial.
    assert schedule.length == 7


def test_constants_are_not_scheduled(base_arch):
    builder = DFGBuilder()
    c = builder.const(3)
    a = builder.load("x", 0)
    builder.mul(a, c)
    dfg = builder.build()
    schedule = LoopPipeliningScheduler(base_arch).schedule(dfg)
    assert c not in schedule
    assert len(schedule) == 2
    schedule.validate(dfg)


def test_latency_model_follows_architecture(base_arch, rsp2_arch):
    from repro.ir import Operation

    mul = Operation("m", OpType.MUL)
    add = Operation("a", OpType.ADD)
    assert LoopPipeliningScheduler(base_arch).latency_of(mul) == 1
    assert LoopPipeliningScheduler(rsp2_arch).latency_of(mul) == 2
    assert LoopPipeliningScheduler(rsp2_arch).latency_of(add) == 1


def test_load_bandwidth_limits_throughput(base_arch):
    # 64 independent MACs need 128 loads; 16 loads/cycle -> at least 8 cycles.
    dfg = parallel_macs(64)
    schedule = LoopPipeliningScheduler(base_arch).schedule(dfg)
    schedule.validate(dfg)
    assert schedule.length >= 128 // base_arch.array.loads_per_cycle
    # Loads per row per cycle never exceed the bus count (validated above),
    # and the total schedule is not absurdly long either.
    assert schedule.length <= 30


def test_schedules_are_deterministic(base_arch):
    dfg_a = parallel_macs(16)
    dfg_b = parallel_macs(16)
    schedule_a = LoopPipeliningScheduler(base_arch).schedule(dfg_a)
    schedule_b = LoopPipeliningScheduler(base_arch).schedule(dfg_b)
    placement_a = [(entry.name, entry.cycle, entry.row, entry.col) for entry in schedule_a.operations()]
    placement_b = [(entry.name, entry.cycle, entry.row, entry.col) for entry in schedule_b.operations()]
    assert placement_a == placement_b


def test_iterations_prefer_their_own_column(base_arch):
    dfg = parallel_macs(8)
    schedule = LoopPipeliningScheduler(base_arch).schedule(dfg)
    for entry in schedule.operations():
        if entry.operation.optype is OpType.MUL:
            assert entry.col == entry.operation.iteration % base_arch.array.cols


def test_sharing_binds_multiplications_to_units():
    arch = rs_architecture(2)
    dfg = parallel_macs(16)
    schedule = LoopPipeliningScheduler(arch).schedule(dfg)
    schedule.validate(dfg)
    for entry in schedule.operations():
        if entry.is_multiplication:
            assert entry.shared_unit is not None
        else:
            assert entry.shared_unit is None


def test_pipelined_multiplier_stretches_dependent_chains(base_arch, rsp2_arch):
    kernel = matrix_multiplication(order=2)
    dfg_base = kernel.build()
    dfg_rsp = kernel.build()
    base_len = LoopPipeliningScheduler(base_arch).schedule(dfg_base).length
    rsp_len = LoopPipeliningScheduler(rsp2_arch).schedule(dfg_rsp).length
    assert rsp_len >= base_len


def test_small_array_still_schedules():
    arch = ArchitectureSpec(
        name="tiny",
        array=ArraySpec(rows=2, cols=2, row_buses=RowBusSpec(read_buses=1, write_buses=1)),
    )
    dfg = parallel_macs(6)
    schedule = LoopPipeliningScheduler(arch).schedule(dfg)
    schedule.validate(dfg)
    assert schedule.length >= 6  # 12 loads through 2 read buses


def test_max_cycle_guard_raises():
    arch = base_architecture()
    dfg = parallel_macs(32)
    scheduler = LoopPipeliningScheduler(arch, max_cycles=1)
    with pytest.raises(SchedulingError, match="did not finish"):
        scheduler.schedule(dfg)


def test_max_cycles_zero_is_a_limit():
    # Zero allows placements in cycle 0 only: one load fits, MVM does not.
    scheduler = LoopPipeliningScheduler(base_architecture(), max_cycles=0)
    builder = DFGBuilder("one-load")
    builder.load("x", 0)
    assert scheduler.schedule(builder.build()).length == 1
    with pytest.raises(SchedulingError, match="did not finish scheduling within 0 cycles"):
        scheduler.schedule(get_kernel("MVM").build())


def test_negative_max_cycles_is_rejected():
    with pytest.raises(ValueError, match="max_cycles must be None or >= 0, got -1"):
        LoopPipeliningScheduler(base_architecture(), max_cycles=-1)


def test_paper_kernel_base_cycles_in_plausible_range(mapper):
    """Base-architecture schedule lengths land in the same range as paper Tables 4/5."""
    expectations = {
        "Hydro": (8, 25),
        "ICCG": (6, 25),
        "Inner product": (16, 40),
        "MVM": (9, 30),
        "SAD": (32, 60),
    }
    for name, (low, high) in expectations.items():
        schedule = mapper.base_schedule(get_kernel(name))
        assert low <= schedule.length <= high, (name, schedule.length)
