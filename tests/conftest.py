"""Shared fixtures for the test suite.

Expensive artefacts (the mapper with its base-schedule cache, the mapped
paper kernels) are session-scoped so the many tests that need a schedule
do not re-run the scheduler over and over.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.arch import (
    base_architecture,
    default_component_library,
    paper_architectures,
    rs_architecture,
    rsp_architecture,
)
from repro.core import HardwareCostModel, TimingModel
from repro.engine.executor import EvaluationEngine
from repro.kernels import get_kernel, matrix_multiplication
from repro.mapping import RSPMapper
from repro.synthesis import SynthesisSurrogate


@pytest.fixture(scope="session")
def library():
    """The paper-calibrated component library."""
    return default_component_library()


@pytest.fixture(scope="session")
def cost_model(library):
    return HardwareCostModel(library)


@pytest.fixture(scope="session")
def timing_model(library):
    return TimingModel(library)


@pytest.fixture(scope="session")
def surrogate(library):
    return SynthesisSurrogate(library)


@pytest.fixture(scope="session")
def base_arch():
    return base_architecture()


@pytest.fixture(scope="session")
def all_paper_archs():
    return paper_architectures()


@pytest.fixture(scope="session")
def rs2_arch():
    return rs_architecture(2)


@pytest.fixture(scope="session")
def rsp2_arch():
    return rsp_architecture(2)


class ScalarEvaluator:
    """The scalar models behind the batch evaluator's interface: one
    ``explorer.evaluate`` call per candidate, which walks the stall
    estimator for every kernel (the batch path's oracle)."""

    def __init__(self, explorer):
        self.explorer = explorer

    def evaluate(self, parameters, names):
        return [
            self.explorer.evaluate(candidate, name=name)
            for candidate, name in zip(parameters, names)
        ]


@pytest.fixture
def scalar_evaluation():
    """A context manager: while it is open, every engine evaluates its
    waves through :class:`ScalarEvaluator` instead of the batch
    evaluator's memoised stall tables."""

    @contextlib.contextmanager
    def substituted():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                EvaluationEngine,
                "batch_evaluator",
                lambda engine: ScalarEvaluator(engine.explorer),
            )
            yield

    return substituted


@pytest.fixture(scope="session")
def mapper():
    """A shared mapper whose base-schedule cache persists across tests."""
    return RSPMapper()


@pytest.fixture(scope="session")
def matmul4_kernel():
    return matrix_multiplication(order=4, constant=1)


@pytest.fixture(scope="session")
def mvm_kernel():
    return get_kernel("MVM")


@pytest.fixture(scope="session")
def hydro_kernel():
    return get_kernel("Hydro")


@pytest.fixture(scope="session")
def mvm_base_result(mapper, mvm_kernel, base_arch):
    """MVM mapped on the base architecture (used by many mapping/sim tests)."""
    return mapper.map_kernel(mvm_kernel, base_arch)
