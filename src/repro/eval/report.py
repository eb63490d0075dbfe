"""Experiment report generation (paper-vs-measured for every table/figure).

:func:`build_report` runs the whole evaluation — Tables 1–5, the headline
claims and the design-space exploration — and returns a structured
:class:`ExperimentReport`.  :func:`report_to_markdown` renders it as the
markdown document stored in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.exploration import ExplorationResult
from repro.core.timing_model import TimingModel
from repro.engine.runner import explore_domain
from repro.eval.tables import (
    PerformanceTable,
    Table1Entry,
    Table3Entry,
    table1_pe_components,
    table2_architectures,
    table3_kernels,
    table4_livermore,
    table5_dsp,
)
from repro.kernels.registry import paper_suite
from repro.mapping.mapper import RSPMapper
from repro.synthesis.calibration import PAPER_HEADLINE
from repro.synthesis.synth_model import SynthesisEstimate
from repro.utils.tabulate import format_markdown_table


@dataclass
class HeadlineClaims:
    """The abstract's headline numbers, measured on this reproduction."""

    max_area_reduction_percent: float
    max_delay_reduction_percent: float
    max_performance_improvement_percent: float
    paper: Dict[str, float] = field(default_factory=lambda: dict(PAPER_HEADLINE))


@dataclass
class ExperimentReport:
    """All reproduced experiments in one structure."""

    table1: List[Table1Entry]
    table2: List[SynthesisEstimate]
    table3: List[Table3Entry]
    table4: PerformanceTable
    table5: PerformanceTable
    headline: HeadlineClaims
    exploration: Optional[ExplorationResult] = None


def build_report(
    mapper: Optional[RSPMapper] = None,
    timing_model: Optional[TimingModel] = None,
    include_exploration: bool = True,
) -> ExperimentReport:
    """Run every experiment and collect the results."""
    mapper = mapper or RSPMapper()
    timing_model = timing_model or TimingModel()
    table1 = table1_pe_components()
    table2 = table2_architectures()
    table3 = table3_kernels(mapper=mapper)
    table4 = table4_livermore(mapper=mapper, timing_model=timing_model)
    table5 = table5_dsp(mapper=mapper, timing_model=timing_model)
    headline = compute_headline_claims(table2, table4, table5)
    exploration = None
    if include_exploration:
        domain = explore_domain(mapper.pipeline, paper_suite(), timing_model=timing_model)
        exploration = domain.result
    return ExperimentReport(
        table1=table1,
        table2=table2,
        table3=table3,
        table4=table4,
        table5=table5,
        headline=headline,
        exploration=exploration,
    )


def compute_headline_claims(
    table2: List[SynthesisEstimate],
    table4: PerformanceTable,
    table5: PerformanceTable,
) -> HeadlineClaims:
    """Derive the abstract's headline numbers from the reproduced tables."""
    non_base = [estimate for estimate in table2 if estimate.architecture != "Base"]
    max_area_reduction = max(estimate.area_reduction_percent for estimate in non_base)
    max_delay_reduction = max(estimate.delay_reduction_percent for estimate in non_base)
    best_performance = 0.0
    for table in (table4, table5):
        for kernel in table.kernels:
            for architecture, record in table.records[kernel].items():
                if architecture == "Base":
                    continue
                best_performance = max(best_performance, record.delay_reduction)
    return HeadlineClaims(
        max_area_reduction_percent=max_area_reduction,
        max_delay_reduction_percent=max_delay_reduction,
        max_performance_improvement_percent=best_performance,
    )


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------
def report_to_markdown(report: ExperimentReport) -> str:
    """Render the whole report as a markdown document."""
    sections: List[str] = []
    sections.append("# EXPERIMENTS — paper vs. measured\n")
    sections.append(
        "All `measured` values come from this repository's analytical models "
        "and mapper; `paper` values are the published numbers.  Absolute values "
        "differ because the paper synthesised RTL and used an in-house mapper; "
        "the comparisons below track whether every qualitative conclusion holds.\n"
    )

    # Table 1
    sections.append("## Table 1 — PE component synthesis\n")
    sections.append(
        format_markdown_table(
            [
                [
                    row.component,
                    row.area_slices,
                    row.paper_area_slices,
                    row.delay_ns,
                    row.paper_delay_ns,
                ]
                for row in report.table1
            ],
            headers=["Component", "Area (measured)", "Area (paper)", "Delay (measured)", "Delay (paper)"],
        )
    )

    # Table 2
    sections.append("\n## Table 2 — architecture area and critical path\n")
    sections.append(
        format_markdown_table(
            [
                [
                    estimate.architecture,
                    round(estimate.array_area_slices, 0),
                    estimate.paper.array_area_slices if estimate.paper else None,
                    round(estimate.area_reduction_percent, 2),
                    estimate.paper.area_reduction_percent if estimate.paper else None,
                    round(estimate.array_delay_ns, 2),
                    estimate.paper.array_delay_ns if estimate.paper else None,
                    round(estimate.delay_reduction_percent, 2),
                    estimate.paper.delay_reduction_percent if estimate.paper else None,
                ]
                for estimate in report.table2
            ],
            headers=[
                "Arch",
                "Area",
                "Area (paper)",
                "Area R%",
                "Area R% (paper)",
                "Delay",
                "Delay (paper)",
                "Delay R%",
                "Delay R% (paper)",
            ],
        )
    )

    # Table 3
    sections.append("\n## Table 3 — kernel characterisation\n")
    sections.append(
        format_markdown_table(
            [
                [
                    row.kernel,
                    ", ".join(row.operation_set),
                    ", ".join(row.paper_operation_set),
                    row.max_multiplications,
                    row.paper_max_multiplications,
                ]
                for row in report.table3
            ],
            headers=["Kernel", "Op set (measured)", "Op set (paper)", "Mult/cycle", "Mult/cycle (paper)"],
        )
    )

    # Tables 4 and 5
    for title, table in (("Table 4 — Livermore kernels", report.table4),
                         ("Table 5 — DSP kernels", report.table5)):
        sections.append(f"\n## {title}\n")
        rows = []
        for kernel in table.kernels:
            for architecture in table.architectures:
                record = table.records[kernel][architecture]
                paper_cell = table.paper.get(kernel, {}).get(architecture)
                rows.append(
                    [
                        kernel,
                        architecture,
                        record.cycles,
                        getattr(paper_cell, "cycles", None),
                        round(record.delay_reduction, 2),
                        getattr(paper_cell, "delay_reduction_percent", None),
                        record.stalls,
                        getattr(paper_cell, "stalls", None),
                    ]
                )
        sections.append(
            format_markdown_table(
                rows,
                headers=[
                    "Kernel",
                    "Arch",
                    "Cycles",
                    "Cycles (paper)",
                    "DR%",
                    "DR% (paper)",
                    "Stalls",
                    "Stalls (paper)",
                ],
            )
        )

    # Headline
    sections.append("\n## Headline claims\n")
    headline = report.headline
    sections.append(
        format_markdown_table(
            [
                [
                    "max area reduction (%)",
                    round(headline.max_area_reduction_percent, 2),
                    headline.paper["max_area_reduction_percent"],
                ],
                [
                    "max delay reduction (%)",
                    round(headline.max_delay_reduction_percent, 2),
                    headline.paper["max_delay_reduction_percent"],
                ],
                [
                    "max performance improvement (%)",
                    round(headline.max_performance_improvement_percent, 2),
                    headline.paper["max_performance_improvement_percent"],
                ],
            ],
            headers=["Claim", "Measured", "Paper"],
        )
    )

    # Exploration
    if report.exploration is not None:
        sections.append("\n## Design-space exploration (Figure 7 flow)\n")
        selected = report.exploration.selected
        pareto_names = ", ".join(
            evaluation.architecture.name for evaluation in report.exploration.pareto
        )
        sections.append(
            f"Feasible designs: {len(report.exploration.feasible)} of "
            f"{len(report.exploration.evaluated)}; Pareto set: {pareto_names}; "
            f"selected design: {selected.architecture.name if selected else 'none'}.\n"
        )
    return "\n".join(sections)
