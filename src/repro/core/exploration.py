"""RSP design-space exploration (paper Section 4, Figure 7 lower half).

Given the base architecture, the initial configuration contexts of the
domain's critical loops (summarised as :class:`~repro.core.stalls.ScheduleProfile`
objects) and a set of candidate RSP parameters, the exploration

1. estimates the hardware cost of every candidate with the Eq. 2 cost
   model,
2. estimates the performance upper bound with the RS/RP stall estimator,
3. rejects candidates whose cost is too high or whose performance is too
   low,
4. keeps only the Pareto-optimal candidates (area vs. execution time), and
5. selects a single optimum.

:func:`~repro.engine.executor.run_exploration` runs these steps with the
per-candidate estimates of :class:`RSPDesignSpaceExplorer`.

The exploration deliberately works on *estimates*; the exact numbers of the
paper's Tables 4/5 are produced afterwards by re-mapping the selected
designs (:mod:`repro.mapping`), exactly as the paper's flow does ("RSP
mapping" after "RSP exploration").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.arch.array import ArraySpec
from repro.arch.template import ArchitectureSpec, default_array_spec
from repro.core.cost_model import HardwareCostModel
from repro.core.rsp_params import RSPParameters
from repro.core.stalls import ScheduleProfile, StallEstimate, StallEstimator
from repro.core.timing_model import TimingModel
from repro.errors import ExplorationError


@dataclass(frozen=True)
class ExplorationConstraints:
    """Feasibility constraints applied before Pareto filtering.

    Attributes
    ----------
    max_area_slices:
        Upper bound on the array area.  ``None`` applies the paper's Eq. 2
        constraint: the design must be smaller than the base architecture.
    max_execution_time_ratio:
        Upper bound on the estimated total execution time relative to the
        base architecture (e.g. 1.2 allows at most 20% slowdown).  ``None``
        disables the check.
    max_stall_cycles:
        Upper bound on the total estimated stall cycles over all kernels.
        ``None`` disables the check.
    """

    max_area_slices: Optional[float] = None
    max_execution_time_ratio: Optional[float] = None
    max_stall_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        # A negative bound rejects every design, the base included, and a
        # NaN one rejects none (every comparison with NaN is false); both
        # fail here, before any mapping.  ``not value >= 0`` catches both.
        for name in ("max_area_slices", "max_execution_time_ratio", "max_stall_cycles"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ExplorationError(f"{name} must be a non-negative number, got {value}")


@dataclass
class DesignPointEvaluation:
    """Cost/performance estimate for one candidate design.

    The domain totals below are cached on first access: feasibility
    checks, Pareto filtering and summary tables all re-read them, and the
    underlying stall dictionary is fixed once an evaluation is built.
    The cache lives in the instance ``__dict__``, so field-based
    serialization, hashing and equality are unaffected.
    """

    parameters: RSPParameters
    architecture: ArchitectureSpec
    area_slices: float
    critical_path_ns: float
    stall_estimates: Dict[str, StallEstimate] = field(default_factory=dict)

    @cached_property
    def total_estimated_cycles(self) -> int:
        """Sum of the upper-bound cycle counts over all domain kernels."""
        return sum(estimate.estimated_cycles for estimate in self.stall_estimates.values())

    @cached_property
    def total_stall_cycles(self) -> int:
        return sum(estimate.total_stalls for estimate in self.stall_estimates.values())

    @cached_property
    def total_execution_time_ns(self) -> float:
        """Estimated execution time over the whole domain (cycles x period)."""
        return self.total_estimated_cycles * self.critical_path_ns


@dataclass
class ExplorationResult:
    """Outcome of one design-space exploration run."""

    base: DesignPointEvaluation
    evaluated: List[DesignPointEvaluation]
    feasible: List[DesignPointEvaluation]
    pareto: List[DesignPointEvaluation]
    selected: Optional[DesignPointEvaluation]

    def by_name(self, name: str) -> DesignPointEvaluation:
        """Look up an evaluated design point by its architecture name.

        Served from a lazily built name index (first match wins, matching
        the original linear scan) instead of an O(n) walk per lookup; the
        index is rebuilt whenever the evaluated list changes length.  It
        lives in the instance ``__dict__`` only, so serialization of the
        dataclass fields is unaffected.
        """
        cached: Optional[Tuple[int, Dict[str, DesignPointEvaluation]]] = self.__dict__.get(
            "_name_index"
        )
        if cached is None or cached[0] != len(self.evaluated):
            index: Dict[str, DesignPointEvaluation] = {}
            for evaluation in self.evaluated:
                index.setdefault(evaluation.architecture.name, evaluation)
            cached = (len(self.evaluated), index)
            self.__dict__["_name_index"] = cached
        evaluation = cached[1].get(name)
        if evaluation is None:
            raise ExplorationError(f"no evaluated design named {name!r}")
        return evaluation

    def summary_rows(self) -> List[List[object]]:
        """Rows (name, kind, area, delay, cycles, ET, stalls, pareto, selected)."""
        pareto_names = {evaluation.architecture.name for evaluation in self.pareto}
        selected_name = self.selected.architecture.name if self.selected else None
        rows: List[List[object]] = []
        for evaluation in self.evaluated:
            name = evaluation.architecture.name
            rows.append(
                [
                    name,
                    evaluation.parameters.kind,
                    round(evaluation.area_slices, 1),
                    round(evaluation.critical_path_ns, 2),
                    evaluation.total_estimated_cycles,
                    round(evaluation.total_execution_time_ns, 1),
                    evaluation.total_stall_cycles,
                    name in pareto_names,
                    name == selected_name,
                ]
            )
        return rows


class RSPDesignSpaceExplorer:
    """Cost and performance estimates of candidate designs for one domain.

    Parameters
    ----------
    profiles:
        Base-architecture schedule profiles of the domain's critical loops,
        keyed by kernel name (the "initial configuration contexts" of the
        paper's flow).
    array:
        Array dimensions of the base architecture.
    cost_model / timing_model:
        Models used for the estimates; default to the paper-calibrated ones.
    """

    def __init__(
        self,
        profiles: Dict[str, ScheduleProfile],
        array: Optional[ArraySpec] = None,
        cost_model: Optional[HardwareCostModel] = None,
        timing_model: Optional[TimingModel] = None,
    ) -> None:
        if not profiles:
            raise ExplorationError("exploration requires at least one kernel profile")
        self.profiles = dict(profiles)
        self.array = array or default_array_spec()
        self.cost_model = cost_model or HardwareCostModel()
        self.timing_model = timing_model or TimingModel()
        self.stall_estimator = StallEstimator()

    def evaluate(self, parameters: RSPParameters, name: Optional[str] = None) -> DesignPointEvaluation:
        """Estimate cost and performance of one RSP parameter assignment."""
        architecture = parameters.to_architecture(self.array, name=name)
        area = self.cost_model.array_area(architecture)
        period = self.timing_model.critical_path_ns(architecture)
        stall_estimates = {
            kernel: self.stall_estimator.estimate(profile, architecture)
            for kernel, profile in self.profiles.items()
        }
        return DesignPointEvaluation(
            parameters=parameters,
            architecture=architecture,
            area_slices=area,
            critical_path_ns=period,
            stall_estimates=stall_estimates,
        )


def is_feasible(
    evaluation: DesignPointEvaluation,
    base: DesignPointEvaluation,
    constraints: ExplorationConstraints,
) -> bool:
    """The cost/performance rejection step of the paper's flow (Section 4).

    A non-base design must be strictly smaller than the area bound (the
    base architecture's area by default, per Eq. 2); optional bounds on the
    execution-time ratio and the total stall cycles reject under-performing
    candidates.
    """
    max_area = constraints.max_area_slices
    if max_area is None:
        max_area = base.area_slices
    if evaluation.parameters.kind != "base" and evaluation.area_slices >= max_area:
        return False
    if constraints.max_execution_time_ratio is not None and base.total_execution_time_ns > 0:
        ratio = evaluation.total_execution_time_ns / base.total_execution_time_ns
        if ratio > constraints.max_execution_time_ratio:
            return False
    if constraints.max_stall_cycles is not None:
        if evaluation.total_stall_cycles > constraints.max_stall_cycles:
            return False
    return True
