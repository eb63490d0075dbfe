"""Tests for the H.264 extension kernels (the paper's future-work domain)."""

from __future__ import annotations

import numpy as np

from repro.arch import base_architecture, rsp_architecture
from repro.ir import OpType, validate_dfg
from repro.kernels.h264 import h264_kernels, integer_transform_4x4, quarter_pel_interpolation
from repro.mapping import RSPMapper
from repro.sim import ArraySimulator, DataMemory


def test_suite_contents():
    names = [kernel.name for kernel in h264_kernels()]
    assert names == ["H264-IT4x4", "H264-QPEL"]


def test_integer_transform_is_multiplier_free():
    kernel = integer_transform_4x4()
    dfg = kernel.build()
    validate_dfg(dfg)
    assert dfg.multiplication_count() == 0
    assert set(kernel.operation_set_names()) == {"add", "sub", "shift"}


def test_quarter_pel_is_multiplication_heavy():
    kernel = quarter_pel_interpolation()
    dfg = kernel.build(iterations=4)
    validate_dfg(dfg)
    assert dfg.multiplication_count() == 4 * 6
    assert "mult" in kernel.operation_set_names()


def test_integer_transform_matches_reference():
    """The mapped transform equals the textbook H.264 core transform C X C^T."""
    kernel = integer_transform_4x4()
    mapper = RSPMapper()
    result = mapper.map_kernel(kernel, rsp_architecture(2))
    rng = np.random.default_rng(11)
    block = rng.integers(-64, 64, size=(4, 4))
    memory = DataMemory({"residual": block.flatten().tolist()})
    simulation = ArraySimulator().run(result.schedule, result.dfg, memory)
    transform = np.array([[1, 1, 1, 1], [2, 1, -1, -2], [1, -1, -1, 1], [1, -2, 2, -1]])
    expected = transform @ block @ transform.T
    measured = np.array(simulation.memory.as_list("coeff", 16)).reshape(4, 4)
    np.testing.assert_array_equal(measured, expected)


def test_quarter_pel_matches_reference():
    kernel = quarter_pel_interpolation(iterations=8)
    mapper = RSPMapper()
    result = mapper.map_kernel(kernel, base_architecture())
    rng = np.random.default_rng(13)
    pixels = rng.integers(0, 255, size=8 + 6)
    memory = DataMemory({"pel": pixels.tolist()})
    simulation = ArraySimulator().run(result.schedule, result.dfg, memory)
    weights = np.array([1, -5, 20, 20, -5, 1])
    expected = [int(np.dot(pixels[n : n + 6], weights)) >> 5 for n in range(8)]
    assert simulation.memory.as_list("half", 8) == expected


def test_h264_domain_behaves_like_the_paper_pair():
    """IT4x4 mirrors SAD (clock-bound), QPEL mirrors 2D-FDCT (multiplier-bound)."""
    mapper = RSPMapper()
    transform = mapper.map_kernel(integer_transform_4x4(), rsp_architecture(2))
    # No multiplications -> no stalls and no pipeline overhead.
    assert transform.stall_cycles == 0
    assert transform.cycles == transform.base_cycles
    qpel_rs1 = mapper.map_kernel(quarter_pel_interpolation(), rsp_architecture(1))
    qpel_rsp2 = mapper.map_kernel(quarter_pel_interpolation(), rsp_architecture(2))
    assert qpel_rsp2.stall_cycles <= qpel_rs1.stall_cycles
