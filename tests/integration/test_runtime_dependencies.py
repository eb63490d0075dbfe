"""The library runs without networkx, which is a test dependency only."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Blocks networkx, imports the CLI entry module, then maps the paper's
#: inner-product kernel on the base design and on RSP#2 and simulates both.
WITHOUT_NETWORKX = """
import sys

sys.modules["networkx"] = None  # any import of networkx now fails

import repro.engine.__main__
from repro.arch import base_architecture, rsp_architecture
from repro.kernels import get_kernel
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
"""


def test_maps_and_simulates_without_networkx():
    source_root = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_NETWORKX],
        env=dict(os.environ, PYTHONPATH=str(source_root)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 2
