"""Shared fixtures and the report mode of the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
reproduced rows next to the published values (run with ``-s`` to see them).
The mapper is session-scoped so base schedules are computed only once per
benchmark session.

Report mode: ``--bench-report PATH`` writes a JSON document with one entry
per benchmark test (outcome, call duration) plus any named metrics the
test recorded through the ``bench_metrics`` fixture.  CI runs the
benchmark suite in this mode and uploads the document as a per-PR
artifact, so the performance trajectory accumulates instead of vanishing
with each job log.
"""

from __future__ import annotations

import contextlib
import json
import platform
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.core import HardwareCostModel, TimingModel
from repro.engine.executor import EvaluationEngine
from repro.mapping import RSPMapper
from repro.synthesis import SynthesisSurrogate

#: nodeid -> {"outcome": ..., "duration": ...} of every call phase.
_RESULTS: Dict[str, Dict[str, object]] = {}
#: nodeid -> metrics dict recorded via the ``bench_metrics`` fixture.
_METRICS: Dict[str, Dict[str, object]] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--bench-report",
        default=None,
        metavar="PATH",
        help="write a JSON benchmark report (per-test durations + recorded "
        "metrics) to PATH at the end of the session",
    )


@pytest.fixture()
def bench_metrics(request) -> Dict[str, object]:
    """A per-test dict; everything put here lands in the bench report."""
    return _METRICS.setdefault(request.node.nodeid, {})


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


def pytest_runtest_logreport(report):
    if report.when == "call":
        _RESULTS[report.nodeid] = {
            "outcome": report.outcome,
            "duration_seconds": round(report.duration, 6),
        }
    elif report.when == "setup" and report.outcome != "passed":
        # A test skipped or failed during fixture setup never reaches the
        # call phase; record it anyway so it cannot silently vanish from
        # the trajectory.
        _RESULTS[report.nodeid] = {
            "outcome": report.outcome,
            "duration_seconds": 0.0,
        }


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-report", default=None)
    if not path:
        return
    tests = {
        nodeid: {**result, "metrics": _METRICS.get(nodeid, {})}
        for nodeid, result in sorted(_RESULTS.items())
    }
    payload = {
        "exit_status": int(exitstatus),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "tests": tests,
    }
    report_path = Path(path)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def mapper():
    return RSPMapper()


@pytest.fixture(scope="session")
def timing_model():
    return TimingModel()


@pytest.fixture(scope="session")
def cost_model():
    return HardwareCostModel()


@pytest.fixture(scope="session")
def surrogate():
    return SynthesisSurrogate()
