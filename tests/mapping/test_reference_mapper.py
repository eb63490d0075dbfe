"""The production scheduler and rearrangement pinned to a frozen reference.

``reference_mapper`` keeps the dict-based tracker, list scheduler and
rearrangement verbatim.  Every schedule below must match the reference's
entry by entry: name, cycle, row, column, latency, PE occupancy, shared unit
and schedule length.  Artifact keys hash DFG content and architecture
structure, not code, so any drift here would let a warm store serve a
schedule the current code would never produce.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import (
    ArchitectureSpec,
    ArraySpec,
    PipeliningSpec,
    RowBusSpec,
    SharingTopology,
    base_architecture,
    rs_architecture,
    rsp_architecture,
)
from repro.engine.jobs import SUITE_NAMES, suite_kernels
from repro.kernels import get_kernel
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.rearrange import rearrange_schedule

import reference_mapper as reference
from dfg_strategies import random_kernel_dfg

#: A non-square array that is not 8x8, with the default row buses.
SMALL_ARRAY = ArraySpec(rows=3, cols=5)
#: The default 8x8 array with one read bus and two write buses per row.
NARROW_BUS_ARRAY = ArraySpec(row_buses=RowBusSpec(read_buses=1, write_buses=2))
#: Kernels with multiplications, mapped off the default array; the slower
#: reference scheduler keeps this list short.
OTHER_ARRAY_KERNELS = ("Hydro", "MVM", "2D-FDCT", "FFT")


def signature(schedule):
    entries = [
        (
            entry.name,
            entry.cycle,
            entry.row,
            entry.col,
            entry.latency,
            entry.pe_occupancy,
            entry.shared_unit,
        )
        for entry in schedule.operations()
    ]
    return entries, schedule.length


def design(array, rows_shared=0, cols_shared=0, stages=1):
    """A design point on ``array``; no sharing and one stage is the base."""
    sharing = SharingTopology(rows_shared=rows_shared, cols_shared=cols_shared)
    return ArchitectureSpec(
        name=f"shr{rows_shared}-shc{cols_shared}-st{stages}",
        array=array,
        sharing=sharing,
        pipelining=PipeliningSpec(stages=stages),
    )


def assert_schedules_match(dfg, architecture):
    """Full mapping of ``dfg`` onto ``architecture``, production vs reference."""
    production = LoopPipeliningScheduler(architecture).schedule(dfg)
    expected = reference.LoopPipeliningScheduler(architecture).schedule(dfg)
    assert signature(production) == signature(expected)
    return production, expected


def assert_rearrangements_match(dfg, production_base, reference_base, target):
    for unlimited_shared in (False, True):
        production = rearrange_schedule(production_base, dfg, target, unlimited_shared)
        expected = reference.rearrange_schedule(reference_base, dfg, target, unlimited_shared)
        assert signature(production) == signature(expected), unlimited_shared


@functools.lru_cache(maxsize=None)
def base_schedules(suite):
    """(dfg, production, reference) base-architecture schedules of ``suite``."""
    base = base_architecture()
    mapped = []
    for kernel in suite_kernels(suite):
        dfg = kernel.build()
        mapped.append(
            (
                dfg,
                LoopPipeliningScheduler(base).schedule(dfg, kernel_name=kernel.name),
                reference.LoopPipeliningScheduler(base).schedule(dfg, kernel_name=kernel.name),
            )
        )
    return tuple(mapped)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_base_schedules_match_reference(suite):
    for _, production, expected in base_schedules(suite):
        assert signature(production) == signature(expected), production.kernel_name


REARRANGE_TARGETS = {
    **{f"RS#{number}": rs_architecture(number) for number in range(1, 5)},
    **{f"RP-{stages}": design(base_architecture().array, stages=stages) for stages in (2, 3)},
    **{
        f"RSP#{number}-{stages}": rsp_architecture(number, stages=stages)
        for number in range(1, 5)
        for stages in (2, 3)
    },
}


@pytest.mark.parametrize("target", sorted(REARRANGE_TARGETS))
@pytest.mark.parametrize("suite", ["paper", "h264"])
def test_rearrangements_match_reference(suite, target):
    for dfg, production, expected in base_schedules(suite):
        assert_rearrangements_match(dfg, production, expected, REARRANGE_TARGETS[target])


@pytest.mark.parametrize(
    "array", [SMALL_ARRAY, NARROW_BUS_ARRAY], ids=["3x5", "narrow-bus"]
)
def test_other_arrays_match_reference(array):
    """Base, full re-maps and rearrangements off the default array."""
    targets = [
        design(array, rows_shared=1),
        design(array, rows_shared=1, cols_shared=1, stages=2),
        design(array, stages=3),
    ]
    for name in OTHER_ARRAY_KERNELS:
        dfg = get_kernel(name).build()
        production_base, reference_base = assert_schedules_match(dfg, design(array))
        for target in targets:
            assert_schedules_match(dfg, target)
            assert_rearrangements_match(dfg, production_base, reference_base, target)


#: A 2x2 array fills up, so operations of different occupancies compete.
ARRAYS = [base_architecture().array, SMALL_ARRAY, NARROW_BUS_ARRAY, ArraySpec(rows=2, cols=2)]


@st.composite
def design_points(draw):
    return design(
        draw(st.sampled_from(ARRAYS)),
        rows_shared=draw(st.integers(min_value=0, max_value=2)),
        cols_shared=draw(st.integers(min_value=0, max_value=2)),
        stages=draw(st.integers(min_value=1, max_value=3)),
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_kernel_dfg(), design_points())
def test_random_kernels_match_reference(dfg, architecture):
    assert_schedules_match(dfg, architecture)
    production_base, reference_base = assert_schedules_match(dfg, design(architecture.array))
    assert_rearrangements_match(dfg, production_base, reference_base, architecture)
