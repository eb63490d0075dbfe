"""The library runs on the standard library alone: numpy and networkx are
test and example dependencies only."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Blocks networkx and numpy, imports the CLI entry module, then maps the
#: paper's inner-product kernel on the base design and on RSP#2 and
#: simulates both, runs the paper campaign through the CLI and the RSP
#: flow on the DSP suite.
WITHOUT_THIRD_PARTY = """
import sys

sys.modules["networkx"] = None  # any import of networkx now fails
sys.modules["numpy"] = None  # and so does any import of numpy

import repro.engine.__main__
from repro.arch import base_architecture, rsp_architecture
from repro.flow import run_rsp_flow
from repro.kernels import dsp_suite, get_kernel
from repro.mapping import RSPMapper
from repro.sim import ArraySimulator, DataMemory

kernel = get_kernel("Inner product")
z = [(7 * index) % 11 - 5 for index in range(64)]
x = [(3 * index) % 13 - 6 for index in range(64)]
mapper = RSPMapper()
for architecture in (base_architecture(), rsp_architecture(2)):
    result = mapper.map_kernel(kernel, architecture)
    simulation = ArraySimulator().run(result.schedule, result.dfg, DataMemory({"z": z, "x": x}))
    assert simulation.memory.value("q", 0) == sum(a * b for a, b in zip(z, x))
    print(architecture.name, result.cycles)

argv = ["--suite", "paper", "--no-cache", "--no-artifact-cache", "--quiet"]
assert repro.engine.__main__.main(argv) == 0
outcome = run_rsp_flow(dsp_suite())
assert outcome.exploration.selected is not None
print("dsp selected", outcome.selected_name)
"""


def test_maps_and_simulates_without_networkx(tmp_path):
    source_root = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_THIRD_PARTY],
        env=dict(os.environ, PYTHONPATH=str(source_root)),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert lines[-1].startswith("dsp selected ")
