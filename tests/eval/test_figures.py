"""Tests for the ASCII figure renderers."""

from __future__ import annotations

import pytest

from repro.arch import base_architecture, rs_architecture, rsp_architecture
from repro.eval.figures import (
    render_exploration_flow,
    render_pareto_plot,
    render_schedule_figure,
    render_sharing_topology,
)
from repro.kernels import matrix_multiplication_column
from repro.mapping.loop_pipelining import LoopPipeliningScheduler


@pytest.fixture(scope="module")
def matmul_schedules():
    kernel = matrix_multiplication_column(order=4)
    base = base_architecture(4, 4)
    rsp = rsp_architecture(1, rows=4, cols=4)
    base_schedule = LoopPipeliningScheduler(base).schedule(kernel.build(), kernel_name=kernel.name)
    rsp_schedule = LoopPipeliningScheduler(rsp).schedule(kernel.build(), kernel_name=kernel.name)
    return base_schedule, rsp_schedule


def test_schedule_figure_has_one_row_per_array_column(matmul_schedules):
    base_schedule, _ = matmul_schedules
    text = render_schedule_figure(base_schedule)
    lines = text.splitlines()
    column_lines = [line for line in lines if line.startswith("col#")]
    assert len(column_lines) == 4
    # Figure 2 layout: col#4 on top, col#1 at the bottom.
    assert column_lines[0].startswith("col#4")
    assert column_lines[-1].startswith("col#1")
    assert "Ld" in text and "*" in text


def test_pipelined_schedule_shows_stage_labels(matmul_schedules):
    _, rsp_schedule = matmul_schedules
    text = render_schedule_figure(rsp_schedule)
    # Two-stage multiplications appear as 1* (first stage) and 2* (second stage).
    assert "1*" in text
    assert "2*" in text


def test_schedule_figure_cycle_truncation(matmul_schedules):
    base_schedule, _ = matmul_schedules
    text = render_schedule_figure(base_schedule, max_cycles=3)
    header = text.splitlines()[1]
    assert " 3" in header and " 4" not in header


def test_topology_rendering_base_and_shared():
    base_text = render_sharing_topology(base_architecture())
    assert "no sharing" in base_text
    rs_text = render_sharing_topology(rs_architecture(3))
    assert "2 per row" in rs_text and "1 per column" in rs_text
    assert "24 total" in rs_text
    rsp_text = render_sharing_topology(rsp_architecture(2))
    assert "2-stage pipelined" in rsp_text


def test_exploration_flow_lists_all_steps():
    text = render_exploration_flow()
    assert "Profiling" in text
    assert "RSP exploration" in text
    assert "RSP mapping" in text


def test_pareto_plot_markers():
    from repro.core import RSPDesignSpaceExplorer
    from repro.core.stalls import ScheduleProfile
    from repro.engine.executor import run_exploration

    profiles = {"k": ScheduleProfile(kernel="k", length=10, critical_issues=(), rows=8, cols=8)}
    result = run_exploration(RSPDesignSpaceExplorer(profiles)).result
    text = render_pareto_plot(result.evaluated, result.pareto)
    assert "P" in text
    assert "execution time" in text
    assert render_pareto_plot([], []) == "(no design points)"
