"""Benchmark: the RSP design-space exploration flow (paper Figure 7 / Section 4).

Profiles the full kernel suite on the base architecture, sweeps the RSP
parameter space, applies the Eq. 2 cost constraint, keeps the Pareto
points and selects a design for the domain.
"""

from __future__ import annotations

from repro.engine.runner import explore_domain
from repro.eval.figures import render_exploration_flow, render_pareto_plot
from repro.kernels import paper_suite
from repro.utils.tabulate import format_table


def explore_paper_suite(mapper):
    return explore_domain(mapper.pipeline, paper_suite()).result


def test_fig7_design_space_exploration(benchmark, mapper):
    result = benchmark.pedantic(explore_paper_suite, args=(mapper,), rounds=1, iterations=1)
    print()
    print(render_exploration_flow())
    print()
    print(
        format_table(
            result.summary_rows(),
            headers=["design", "kind", "area", "delay", "cycles", "ET(ns)", "stalls", "pareto", "selected"],
            title="RSP exploration over the nine-kernel domain",
        )
    )
    print()
    print(render_pareto_plot(result.evaluated, result.pareto))

    # Every feasible sharing design respects the Eq. 2 area constraint.
    for evaluation in result.feasible:
        if evaluation.parameters.kind != "base":
            assert evaluation.area_slices < result.base.area_slices
    # The Pareto front is non-trivial and the selected design shares the
    # multiplier (the domain is multiplication heavy).
    assert len(result.pareto) >= 2
    assert result.selected is not None
    assert result.selected.parameters.uses_sharing
    # Pipelined candidates dominate their combinational counterparts on
    # execution time at equal sharing (they run at a faster clock).
    by_description = {evaluation.parameters.describe(): evaluation for evaluation in result.evaluated}
    rs2 = by_description["rs(shr=2,shc=0,stages=1)"]
    rsp2 = by_description["rsp(shr=2,shc=0,stages=2)"]
    assert rsp2.total_execution_time_ns < rs2.total_execution_time_ns
