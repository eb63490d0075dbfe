"""End-to-end numerical correctness: mapped kernels compute the right values.

These tests close the loop the paper leaves implicit: the schedules the
mapper produces — on the base architecture and on RS/RSP design points —
are executed by the functional simulator and the results are checked
against NumPy reference computations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import base_architecture, paper_architectures, rs_architecture, rsp_architecture
from repro.kernels import (
    fft_multiplication_loop,
    get_kernel,
    inner_product,
    matrix_multiplication,
    matrix_vector_multiplication,
    sad_16x16,
)
from repro.mapping import RSPMapper
from repro.sim import ArraySimulator, DataMemory

RNG = np.random.default_rng(20050307)


@pytest.fixture(scope="module")
def module_mapper():
    return RSPMapper()


def simulate(kernel, architecture, memory, mapper):
    result = mapper.map_kernel(kernel, architecture)
    return ArraySimulator().run(result.schedule, result.dfg, memory)


class TestMatrixMultiplication:
    @pytest.mark.parametrize("architecture_factory", [
        base_architecture,
        lambda: rs_architecture(1),
        lambda: rsp_architecture(2),
    ])
    def test_matches_numpy_on_every_architecture_class(self, module_mapper, architecture_factory):
        order, constant = 4, 2
        kernel = matrix_multiplication(order=order, constant=constant)
        x = RNG.integers(-20, 20, size=(order, order))
        y = RNG.integers(-20, 20, size=(order, order))
        memory = DataMemory({"X": x.flatten().tolist(), "Y": y.flatten().tolist()})
        simulation = simulate(kernel, architecture_factory(), memory, module_mapper)
        expected = constant * (x @ y)
        measured = np.array(simulation.memory.as_list("Z", order * order)).reshape(order, order)
        np.testing.assert_array_equal(measured, expected)


class TestMatrixVectorMultiplication:
    def test_mvm_matches_numpy(self, module_mapper):
        kernel = matrix_vector_multiplication(iterations=64, vector_length=8)
        matrix = RNG.integers(-30, 30, size=(8, 8))
        vector = RNG.integers(-30, 30, size=8)
        memory = DataMemory({"A": matrix.flatten().tolist(), "x": vector.tolist()})
        simulation = simulate(kernel, rsp_architecture(2), memory, module_mapper)
        measured = np.array(simulation.memory.as_list("y", 8))
        np.testing.assert_array_equal(measured, matrix @ vector)


class TestInnerProduct:
    def test_inner_product_matches_numpy(self, module_mapper):
        kernel = inner_product(iterations=64)
        z = RNG.integers(-10, 10, size=64)
        x = RNG.integers(-10, 10, size=64)
        memory = DataMemory({"z": z.tolist(), "x": x.tolist()})
        simulation = simulate(kernel, base_architecture(), memory, module_mapper)
        assert simulation.memory.value("q", 0) == int(np.dot(z, x))


class TestSAD:
    def test_sad_matches_numpy(self, module_mapper):
        kernel = sad_16x16(iterations=16, width=16)
        current = RNG.integers(0, 255, size=(16, 16))
        reference = RNG.integers(0, 255, size=(16, 16))
        memory = DataMemory({"cur": current.flatten().tolist(), "ref": reference.flatten().tolist()})
        simulation = simulate(kernel, rsp_architecture(1), memory, module_mapper)
        assert simulation.memory.value("sad", 0) == int(np.abs(current - reference).sum())


class TestFFTButterfly:
    def test_fft_twiddle_loop_matches_numpy(self, module_mapper):
        iterations = 16
        kernel = fft_multiplication_loop(iterations=iterations)
        a = RNG.integers(-15, 15, size=iterations) + 1j * RNG.integers(-15, 15, size=iterations)
        w = RNG.integers(-15, 15, size=iterations) + 1j * RNG.integers(-15, 15, size=iterations)
        b = RNG.integers(-15, 15, size=iterations) + 1j * RNG.integers(-15, 15, size=iterations)
        memory = DataMemory(
            {
                "ar": a.real.astype(int).tolist(),
                "ai": a.imag.astype(int).tolist(),
                "wr": w.real.astype(int).tolist(),
                "wi": w.imag.astype(int).tolist(),
                "br": b.real.astype(int).tolist(),
                "bi": b.imag.astype(int).tolist(),
            }
        )
        simulation = simulate(kernel, rsp_architecture(2), memory, module_mapper)
        product = a * w
        out0 = b + product
        out1 = b - product
        np.testing.assert_array_equal(
            np.array(simulation.memory.as_list("or0", iterations)), out0.real.astype(int)
        )
        np.testing.assert_array_equal(
            np.array(simulation.memory.as_list("oi0", iterations)), out0.imag.astype(int)
        )
        np.testing.assert_array_equal(
            np.array(simulation.memory.as_list("or1", iterations)), out1.real.astype(int)
        )
        np.testing.assert_array_equal(
            np.array(simulation.memory.as_list("oi1", iterations)), out1.imag.astype(int)
        )


class TestCrossArchitectureConsistency:
    def test_same_results_on_every_paper_architecture(self, module_mapper):
        """Sharing and pipelining change the schedule, never the values."""
        kernel = matrix_multiplication(order=3, constant=1)
        x = RNG.integers(-9, 9, size=(3, 3))
        y = RNG.integers(-9, 9, size=(3, 3))
        reference = None
        for architecture in paper_architectures():
            memory = DataMemory({"X": x.flatten().tolist(), "Y": y.flatten().tolist()})
            simulation = simulate(kernel, architecture, memory, module_mapper)
            outcome = simulation.memory.as_list("Z", 9)
            if reference is None:
                reference = outcome
            assert outcome == reference, architecture.name
        np.testing.assert_array_equal(np.array(reference).reshape(3, 3), x @ y)
