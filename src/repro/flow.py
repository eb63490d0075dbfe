"""End-to-end RSP design flow (paper Figure 7).

The paper's flow has two halves: the generic base-architecture exploration
(profiling, base architecture selection, pipeline mapping) and the RSP
refinement (RSP exploration, RSP mapping).  :func:`run_rsp_flow` wires the
library's pieces together in that order for a given application domain
(a set of kernels) and returns everything a user needs: the base mapping of
every kernel, the exploration result, the selected design point and the
final RSP mappings on that design.

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

from repro.arch.array import ArraySpec
from repro.arch.template import ArchitectureSpec, base_architecture, default_array_spec
from repro.core.exploration import (
    ExplorationConstraints,
    ExplorationResult,
    RSPDesignSpaceExplorer,
)
from repro.core.rsp_params import RSPParameters, enumerate_design_space
from repro.core.stalls import ScheduleProfile
from repro.core.timing_model import TimingModel
from repro.core.cost_model import HardwareCostModel
from repro.errors import ExplorationError
from repro.ir.loops import Kernel
from repro.mapping.mapper import MappingResult, RSPMapper

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.engine.artifacts import ArtifactStore
    from repro.engine.cache import EvaluationCache
    from repro.engine.executor import ExecutorConfig


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
    array: Optional[ArraySpec] = None,
    candidates: Optional[Sequence[RSPParameters]] = None,
    constraints: Optional[ExplorationConstraints] = None,
    cost_model: Optional[HardwareCostModel] = None,
    timing_model: Optional[TimingModel] = None,
    executor: Optional["ExecutorConfig"] = None,
    cache: Optional["EvaluationCache"] = None,
    artifact_store: Optional[Union["ArtifactStore", str, Path]] = None,
) -> FlowOutcome:
    """Run the complete RSP design flow for an application domain.

    Parameters
    ----------
    kernels:
        The critical loops of the target domain (the output of the paper's
        profiling step).
    array:
        Dimensions and bus structure of the base architecture; defaults to
        the paper's 8x8 array.
    candidates:
        RSP parameter candidates to explore; defaults to the standard sweep
        (``shr``/``shc`` in 0..2, multiplier stages in {1, 2}).
    constraints:
        Feasibility constraints applied before Pareto filtering.
    cost_model / timing_model:
        Models used for the exploration estimates.
    executor / cache:
        Evaluation-engine options (see :mod:`repro.engine`): the wave
        size of candidate evaluation and a persistent cache so repeated
        flows never recompute an evaluation.  The exploration step always
        runs through the engine; these arguments only tune it.
    artifact_store:
        Optional persistent :class:`~repro.engine.artifacts.ArtifactStore`
        backing the staged mapping pipeline: base schedules, profiles and
        rearranged schedules of repeated flows are fetched instead of
        recomputed.  A path is accepted as shorthand and opens a store
        rooted there.  The flow's outputs are identical either way.
    """
    if not kernels:
        raise ExplorationError("the RSP flow needs at least one kernel")
    if artifact_store is not None and isinstance(artifact_store, (str, Path)):
        from repro.engine.artifacts import ArtifactStore

        artifact_store = ArtifactStore(artifact_store)
    array_spec = array or default_array_spec()
    base = base_architecture(array_spec.rows, array_spec.cols)
    mapper = RSPMapper(base=base, store=artifact_store)
    timing_model = timing_model or TimingModel()
    cost_model = cost_model or HardwareCostModel()

    # Upper half of Figure 7: pipeline mapping on the base architecture.
    base_mappings: Dict[str, MappingResult] = {}
    profiles: Dict[str, ScheduleProfile] = {}
    for kernel in kernels:
        base_mappings[kernel.name] = mapper.map_kernel(kernel, base)
        profiles[kernel.name] = mapper.pipeline.profile_artifact(kernel).value

    # Lower half of Figure 7: RSP exploration.
    explorer = RSPDesignSpaceExplorer(
        profiles, array=array_spec, cost_model=cost_model, timing_model=timing_model
    )
    candidate_list = list(candidates) if candidates is not None else enumerate_design_space()
    exploration = explorer.explore(candidate_list, constraints, executor=executor, cache=cache)

    selected_architecture: Optional[ArchitectureSpec] = None
    rsp_mappings: Dict[str, MappingResult] = {}
    if exploration.selected is not None and exploration.selected.parameters.kind != "base":
        selected_architecture = exploration.selected.architecture
        # RSP mapping: rearrange every kernel's context for the chosen design.
        for kernel in kernels:
            rsp_mappings[kernel.name] = mapper.map_kernel(kernel, selected_architecture)

    return FlowOutcome(
        base_architecture=base,
        base_mappings=base_mappings,
        profiles=profiles,
        exploration=exploration,
        selected_architecture=selected_architecture,
        rsp_mappings=rsp_mappings,
    )
