"""Evaluation jobs and campaign specifications.

A *campaign* is the engine's unit of work: one or more kernel suites, a
candidate grid over the RSP parameter space, feasibility constraints and
an executor configuration.  Each candidate becomes an
:class:`EvaluationJob` whose identity is a content hash over everything
that determines the evaluation outcome:

* the candidate's :class:`~repro.core.rsp_params.RSPParameters`,
* the *evaluation context* — the base-architecture schedule profiles, the
  array dimensions and the cost/timing-model calibration.

Two jobs with the same hash are guaranteed to produce the same
:class:`~repro.core.exploration.DesignPointEvaluation`, which is what
makes the persistent cache (:mod:`repro.engine.cache`) safe across runs,
suites and overlapping candidate grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.array import ArraySpec
from repro.core.cost_model import HardwareCostModel
from repro.core.exploration import ExplorationConstraints
from repro.core.rsp_params import RSPParameters, enumerate_design_space
from repro.core.stalls import ScheduleProfile
from repro.core.timing_model import TimingModel
from repro.errors import ExplorationError
from repro.utils.serialization import content_hash

#: Suites a campaign can run, in report order.  Values are import paths
#: resolved lazily so a campaign spec stays a plain, hashable value object.
SUITE_NAMES: Tuple[str, ...] = ("paper", "livermore", "dsp", "h264")


def suite_kernels(name: str):
    """Instantiate the kernels of the named suite."""
    from repro.kernels import dsp_suite, h264_kernels, livermore_suite, paper_suite

    factories = {
        "paper": paper_suite,
        "livermore": livermore_suite,
        "dsp": dsp_suite,
        "h264": h264_kernels,
    }
    try:
        factory = factories[name]
    except KeyError as exc:
        known = ", ".join(SUITE_NAMES)
        raise ExplorationError(f"unknown suite {name!r}; known suites: {known}") from exc
    return factory()


def hash_payload(payload: object) -> str:
    """SHA-256 over the canonical JSON form of ``payload``.

    Alias of :func:`repro.utils.serialization.content_hash`, the hashing
    convention shared with the mapping pipeline's artifact keys.
    """
    return content_hash(payload)


#: Memo for :meth:`EvaluationJob.content_hash`.  The digest is fully
#: determined by ``(parameters, context_hash)`` — the optional job name is
#: a display label, not part of the payload — and candidate grids reuse the
#: same :class:`RSPParameters` values across sweeps and caches,
#: so repeated hashing of one candidate is pure waste.  Entries are tiny
#: and the parameter space is enumerable, but cap it anyway so a pathological
#: caller cannot grow it without bound.
_CONTENT_HASH_MEMO: Dict[Tuple[RSPParameters, str], str] = {}
_CONTENT_HASH_MEMO_LIMIT = 65536


def evaluation_context_hash(
    profiles: Dict[str, ScheduleProfile],
    array: ArraySpec,
    cost_model: HardwareCostModel,
    timing_model: TimingModel,
) -> str:
    """Digest of everything besides the candidate that shapes an evaluation."""
    payload = {
        "profiles": {name: profiles[name] for name in sorted(profiles)},
        "array": array,
        "cost_components": sorted(
            (component for component in cost_model.library.components()),
            key=lambda component: component.name,
        ),
        "timing_components": sorted(
            (component for component in timing_model.library.components()),
            key=lambda component: component.name,
        ),
        "wiring_margin_ns": timing_model.wiring_margin_ns,
    }
    return hash_payload(payload)


@dataclass(frozen=True)
class EvaluationJob:
    """One candidate evaluation within a campaign.

    Attributes
    ----------
    parameters:
        The RSP parameter assignment to evaluate.
    name:
        Optional architecture name override (the base point is conventionally
        named ``"Base"``).
    """

    parameters: RSPParameters
    name: Optional[str] = None

    def content_hash(self, context_hash: str) -> str:
        """Cache key: candidate parameters + evaluation context (memoized)."""
        memo_key = (self.parameters, context_hash)
        digest = _CONTENT_HASH_MEMO.get(memo_key)
        if digest is None:
            digest = hash_payload({"context": context_hash, "parameters": self.parameters})
            if len(_CONTENT_HASH_MEMO) >= _CONTENT_HASH_MEMO_LIMIT:
                _CONTENT_HASH_MEMO.clear()
            _CONTENT_HASH_MEMO[memo_key] = digest
        return digest


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one exploration campaign.

    Attributes
    ----------
    name:
        Campaign name, used in reports and cache-file naming.
    suites:
        Kernel suites to explore (subset of :data:`SUITE_NAMES`).
    max_rows_shared / max_cols_shared / stage_options:
        Candidate-grid bounds forwarded to
        :func:`~repro.core.rsp_params.enumerate_design_space`.
    constraints:
        Feasibility constraints applied before Pareto filtering.
    chunk_size:
        Jobs per evaluation wave (see :mod:`repro.engine.executor`).
    early_reject:
        Enable the dominance-based early-reject filter.  Rejected
        candidates are provably dominated, so the Pareto front and the
        selected design are unaffected; the full per-candidate evaluation
        list will, however, omit them.
    """

    name: str = "campaign"
    suites: Tuple[str, ...] = ("paper",)
    max_rows_shared: int = 2
    max_cols_shared: int = 2
    stage_options: Tuple[int, ...] = (1, 2)
    constraints: ExplorationConstraints = field(default_factory=ExplorationConstraints)
    chunk_size: int = 8
    early_reject: bool = False

    def __post_init__(self) -> None:
        if not self.suites:
            raise ExplorationError("a campaign needs at least one suite")
        unknown = [suite for suite in self.suites if suite not in SUITE_NAMES]
        if unknown:
            raise ExplorationError(
                f"unknown suites {unknown!r}; known suites: {', '.join(SUITE_NAMES)}"
            )

    def candidate_grid(self) -> List[RSPParameters]:
        """The candidate sweep of this campaign (base point included)."""
        return enumerate_design_space(
            max_rows_shared=self.max_rows_shared,
            max_cols_shared=self.max_cols_shared,
            stage_options=self.stage_options,
            include_base=True,
        )

    def jobs(self) -> List[EvaluationJob]:
        """The evaluation jobs of the candidate grid, base point first."""
        jobs: List[EvaluationJob] = []
        for parameters in self.candidate_grid():
            name = "Base" if parameters.kind == "base" else None
            jobs.append(EvaluationJob(parameters=parameters, name=name))
        return jobs
