"""End-to-end RSP design flow (paper Figure 7).

The paper's flow has two halves: the generic base-architecture exploration
(profiling, base architecture selection, pipeline mapping) and the RSP
refinement (RSP exploration, RSP mapping).  :func:`run_rsp_flow` runs them
in that order for a given application domain (a set of kernels), exploring
through :func:`repro.engine.runner.explore_domain`, and returns everything
a user needs: the base mapping of every kernel, the exploration result, the
selected design point and the final RSP mappings on that design.

This is the highest-level entry point of the library::

    from repro.flow import run_rsp_flow
    from repro.kernels import paper_suite

    outcome = run_rsp_flow(paper_suite())
    print(outcome.selected_architecture.name)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from repro.arch.template import ArchitectureSpec
from repro.core.exploration import ExplorationConstraints, ExplorationResult
from repro.core.rsp_params import RSPParameters
from repro.core.stalls import ScheduleProfile
from repro.errors import ExplorationError
from repro.ir.loops import Kernel
from repro.mapping.pipeline import MappingPipeline, MappingResult

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.engine.artifacts import ArtifactStore


@dataclass
class FlowOutcome:
    """Everything produced by one run of the RSP design flow."""

    base_architecture: ArchitectureSpec
    base_mappings: Dict[str, MappingResult]
    profiles: Dict[str, ScheduleProfile]
    exploration: ExplorationResult
    selected_architecture: Optional[ArchitectureSpec]
    rsp_mappings: Dict[str, MappingResult] = field(default_factory=dict)

    @property
    def selected_name(self) -> str:
        """Name of the selected design point (``"Base"`` when nothing was selected)."""
        if self.selected_architecture is None:
            return "Base"
        return self.selected_architecture.name

    def total_base_cycles(self) -> int:
        """Sum of base-architecture cycle counts over the domain kernels."""
        return sum(result.cycles for result in self.base_mappings.values())

    def total_selected_cycles(self) -> int:
        """Sum of selected-design cycle counts over the domain kernels."""
        if not self.rsp_mappings:
            return self.total_base_cycles()
        return sum(result.cycles for result in self.rsp_mappings.values())


def run_rsp_flow(
    kernels: Sequence[Kernel],
    candidates: Optional[Sequence[RSPParameters]] = None,
    constraints: Optional[ExplorationConstraints] = None,
    artifact_store: Optional[Union["ArtifactStore", str, Path]] = None,
) -> FlowOutcome:
    """Run the complete RSP design flow for an application domain.

    Parameters
    ----------
    kernels:
        The critical loops of the target domain (the output of the paper's
        profiling step).
    candidates:
        RSP parameter candidates to explore; defaults to the standard sweep
        (``shr``/``shc`` in 0..2, multiplier stages in {1, 2}).
    constraints:
        Feasibility constraints applied before Pareto filtering.
    artifact_store:
        Optional persistent :class:`~repro.engine.artifacts.ArtifactStore`
        backing the staged mapping pipeline: base schedules, profiles and
        rearranged schedules of repeated flows are fetched instead of
        recomputed.  A path is accepted as shorthand and opens a store
        rooted there.  The flow's outputs are identical either way.

    For another base array, run :func:`repro.engine.runner.explore_domain`
    on a pipeline whose base carries it.
    """
    if not kernels:
        raise ExplorationError("the RSP flow needs at least one kernel")
    # Imported here so that ``import repro`` does not load the engine.
    from repro.engine.runner import explore_domain

    pipeline = MappingPipeline(store=artifact_store)
    base = pipeline.base

    # Upper half of Figure 7: pipeline mapping on the base architecture.
    base_mappings = {kernel.name: pipeline.run(kernel, base) for kernel in kernels}
    # Profiling and RSP exploration on the same base.
    domain = explore_domain(pipeline, kernels, candidates, constraints)
    exploration = domain.result

    selected_architecture: Optional[ArchitectureSpec] = None
    rsp_mappings: Dict[str, MappingResult] = {}
    if exploration.selected is not None and exploration.selected.parameters.kind != "base":
        selected_architecture = exploration.selected.architecture
        # RSP mapping: rearrange every kernel's context for the chosen design.
        for kernel in kernels:
            rsp_mappings[kernel.name] = pipeline.run(kernel, selected_architecture)

    return FlowOutcome(
        base_architecture=base,
        base_mappings=base_mappings,
        profiles=domain.profiles,
        exploration=exploration,
        selected_architecture=selected_architecture,
        rsp_mappings=rsp_mappings,
    )
