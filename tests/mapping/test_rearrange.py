"""Tests for the RS/RP configuration-context rearrangement."""

from __future__ import annotations

import hashlib

import pytest

from repro.arch import base_architecture, rs_architecture, rsp_architecture
from repro.engine.jobs import suite_kernels
from repro.ir import DFGBuilder
from repro.kernels import get_kernel
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.rearrange import (
    RearrangementResult,
    evaluate_rearrangement,
    rearrange_schedule,
    remap_schedule,
)


def mult_burst_dfg(count: int = 24):
    """Independent MACs whose multiplications all become ready together."""
    builder = DFGBuilder("burst")
    for index in range(count):
        builder.set_iteration(index)
        a = builder.load("x", index)
        b = builder.load("y", index)
        product = builder.mul(a, b)
        builder.store("z", index, product)
    return builder.build()


@pytest.fixture(scope="module")
def burst_base():
    dfg = mult_burst_dfg()
    schedule = LoopPipeliningScheduler(base_architecture()).schedule(dfg, kernel_name="burst")
    return dfg, schedule


def test_rearranged_schedule_is_valid_on_target(burst_base):
    dfg, base_schedule = burst_base
    for target in (rs_architecture(1), rs_architecture(4), rsp_architecture(1), rsp_architecture(2)):
        rearranged = rearrange_schedule(base_schedule, dfg, target)
        rearranged.validate(dfg)
        assert len(rearranged) == len(base_schedule)


def test_rearrangement_keeps_placements(burst_base):
    dfg, base_schedule = burst_base
    rearranged = rearrange_schedule(base_schedule, dfg, rs_architecture(1))
    for entry in base_schedule.operations():
        assert rearranged.get(entry.name).position == entry.position


def test_rearrangement_never_schedules_earlier_than_base(burst_base):
    dfg, base_schedule = burst_base
    rearranged = rearrange_schedule(base_schedule, dfg, rsp_architecture(2))
    for entry in base_schedule.operations():
        assert rearranged.get(entry.name).cycle >= entry.cycle


def test_rs_capacity_ordering(burst_base):
    dfg, base_schedule = burst_base
    lengths = [
        rearrange_schedule(base_schedule, dfg, rs_architecture(design)).length
        for design in range(1, 5)
    ]
    # More shared multipliers never make the schedule longer.
    assert lengths == sorted(lengths, reverse=True)
    assert lengths[0] >= base_schedule.length


def test_unlimited_shared_rs_reproduces_base_length(burst_base):
    dfg, base_schedule = burst_base
    stall_free = rearrange_schedule(
        base_schedule, dfg, rs_architecture(1), unlimited_shared=True
    )
    assert stall_free.length == base_schedule.length


def test_evaluate_rearrangement_stall_accounting(burst_base):
    dfg, base_schedule = burst_base
    result = evaluate_rearrangement(base_schedule, dfg, rs_architecture(1))
    assert isinstance(result, RearrangementResult)
    assert result.base_cycles == base_schedule.length
    assert result.stall_free_cycles == base_schedule.length
    assert result.cycles == result.stall_free_cycles + result.stall_cycles
    assert result.stall_cycles >= 0


def test_evaluate_rearrangement_base_is_identity(burst_base):
    dfg, base_schedule = burst_base
    result = evaluate_rearrangement(base_schedule, dfg, base_architecture())
    assert result.cycles == base_schedule.length
    assert result.stall_cycles == 0
    assert result.pipeline_overhead_cycles == 0


def test_rsp_pipeline_overhead_separated_from_stalls(burst_base):
    dfg, base_schedule = burst_base
    result = evaluate_rearrangement(base_schedule, dfg, rsp_architecture(4))
    # RSP#4 has plenty of multipliers: the extra cycles are pipeline overhead,
    # not resource-lack stalls.
    assert result.pipeline_overhead_cycles >= 0
    assert result.stall_cycles <= 1


def test_rsp_relaxes_sharing_pressure_vs_rs(mapper):
    """Same sharing topology: the RSP design stalls no more than the RS design."""
    kernel = get_kernel("2D-FDCT")
    rs_result = mapper.map_kernel(kernel, rs_architecture(2))
    rsp_result = mapper.map_kernel(kernel, rsp_architecture(2))
    assert rsp_result.stall_cycles <= rs_result.stall_cycles


def test_remap_schedule_not_worse_than_rearrangement(burst_base):
    """Free placement (full re-mapping) never needs more cycles than rearrangement."""
    dfg, base_schedule = burst_base
    target = rs_architecture(1)
    rearranged = rearrange_schedule(base_schedule, dfg, target)
    remapped = remap_schedule(dfg, target, kernel_name="burst")
    remapped.validate(dfg)
    assert remapped.length <= rearranged.length


#: sha256 of each full re-map's signature, ``repr((entries, length))`` with
#: every entry's name, cycle, row, column, latency, PE occupancy and shared
#: unit in (cycle, column, row) order, for the paper and h264 kernels on
#: RS#1 and RSP#2.  The frozen scheduler of ``reference_mapper.py`` maps
#: these pairs to the same digests, but takes seconds per design.
REMAP_DIGESTS = {
    "RS#1": {
        "2D-FDCT": "f7e0cbd72e9217f68cc070109896d79b0006a9e62b3c7f94623caaa2d2229f45",
        "FFT": "27a131a619838aae2be9ccf80e4ead36fe853aa80f41a49db6efcf3c41cf9f9c",
        "H264-IT4x4": "312ce1ab32f667d3b8c28efb491f35138107099ead2492423274bdbff609ba98",
        "H264-QPEL": "0f4f93772777a256fab105dff9ee507322c3632249e4c876ad7398817ffb5a34",
        "Hydro": "4488775e7c61f60ea934749a480bf0f5023f47ee944afe9e9a1f4af4dc147adc",
        "ICCG": "0ca4a8e585ae50dd1db81353714abcb82603c3c0631d379ab0ba2a801940a50a",
        "Inner product": "038ef84e8b95a3cc745a46327adb1509f2e6cc35893c709d91aa38e2363d8669",
        "MVM": "3af1136d61bd4d2f02e4812b8c4a561f47fc3168e85386d5af7a60435ef77c1c",
        "SAD": "c2079d83c9dcddcfca0d1a40dce3f34faafab9bb9d7868c4d895745f3921c856",
        "State": "e349b6627e511889d6038adb5e5e36e76521f61c7642bb9f9ccd71acdd11e605",
        "Tri-diagonal": "06c9281b54cd6f24c6163fbabe31ead372de4154b16e37d2e7ec777ab1bfb26c",
    },
    "RSP#2": {
        "2D-FDCT": "44f01062826230bf834639a4a0cc3e34110a6cbf558d0fb64b8ea15a837c4597",
        "FFT": "a61c29c62e97542eb76e4da5aba53b276227e93a291830cbb73a9b0fb5cb1cf1",
        "H264-IT4x4": "312ce1ab32f667d3b8c28efb491f35138107099ead2492423274bdbff609ba98",
        "H264-QPEL": "6900a76bb66eb604d9d225ace01457cf3d9d0656bb8b1f834a2a277b0699e47b",
        "Hydro": "b464cf143ae9f06f35c8525ebafdaa05c228f45ba0c6e4de2aa8b8e0273a73c3",
        "ICCG": "96da2b1fe33777a57f70fde0e41608d7fbf6233be183b9da430240e901d6379a",
        "Inner product": "44c677c60060613b11aec26706148ed32c4bea08f0bd32b26d865be7d0df0c59",
        "MVM": "1bfe8b2b254928768c43657182f0cf1df5525d0fb365ef0375ccfed5e7b245e5",
        "SAD": "c2079d83c9dcddcfca0d1a40dce3f34faafab9bb9d7868c4d895745f3921c856",
        "State": "978682526fc0935959fee033c5e541be0f3bcc3b9c67cb1fa18708410225c714",
        "Tri-diagonal": "4f111284cb493a17182bcb8547ad1b0b9b9c0928d5f666a58bda744c4a31a81d",
    },
}


@pytest.mark.parametrize("design", sorted(REMAP_DIGESTS))
def test_full_remaps_of_the_suite_kernels_are_pinned(design):
    target = {"RS#1": rs_architecture(1), "RSP#2": rsp_architecture(2)}[design]
    digests = {}
    for kernel in suite_kernels("paper") + suite_kernels("h264"):
        dfg = kernel.build()
        schedule = remap_schedule(dfg, target, kernel_name=kernel.name)
        entries = [
            (e.name, e.cycle, e.row, e.col, e.latency, e.pe_occupancy, e.shared_unit)
            for e in schedule.operations()
        ]
        digests[kernel.name] = hashlib.sha256(
            repr((entries, schedule.length)).encode()
        ).hexdigest()
    assert digests == REMAP_DIGESTS[design]
