"""Smoke tests for the runnable examples.

The heavyweight exploration example is exercised separately through
``repro.flow`` tests; here the two fast examples are imported and executed
to ensure the documented entry points keep working.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_contains_documented_scripts():
    names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart.py",
        "design_space_exploration.py",
        "matmul_schedules.py",
        "custom_kernel.py",
    } <= names


def test_quickstart_runs_and_verifies_against_numpy(capsys):
    module = load_example("quickstart")
    module.main()
    output = capsys.readouterr().out
    assert "RSP#2" in output
    assert "OK" in output


def test_matmul_schedules_example_renders_both_figures(capsys):
    module = load_example("matmul_schedules")
    module.main()
    output = capsys.readouterr().out
    assert "Base 4x4" in output
    assert "1*" in output and "2*" in output


def test_custom_kernel_example_defines_a_valid_kernel():
    module = load_example("custom_kernel")
    kernel = module.make_fir_kernel()
    from repro.ir import validate_dfg

    validate_dfg(kernel.build(iterations=4))
    assert kernel.operation_set_names() == ["add", "mult"]
