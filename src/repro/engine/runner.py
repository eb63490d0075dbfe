"""The Figure-7 flow for one kernel set, and the campaign runner.

:func:`explore_domain` runs the paper's Figure-7 flow for one kernel set.
It obtains each kernel's :class:`~repro.core.stalls.ScheduleProfile` (the
paper flow's "initial configuration contexts") from the staged mapping
pipeline (:class:`~repro.mapping.pipeline.MappingPipeline`), so with a warm
artifact store the base scheduling work is fetched instead of re-run.  It
runs the candidate grid through the evaluation engine on the pipeline's
base array, in batched waves, backed by the persistent cache and
optionally with the dominance early-reject filter.

:func:`repro.flow.run_rsp_flow`, :func:`repro.eval.report.build_report` and
:class:`CampaignRunner` all run it.  A campaign records each suite's
outcome as a :class:`SuiteReport`, including per-stage mapping timings and
artifact-store hit counts.  The aggregate :class:`CampaignReport` is a
plain dataclass tree, so it serialises losslessly through
:func:`repro.utils.serialization.to_json` and is what ``python -m
repro.engine`` writes to disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cost_model import HardwareCostModel
from repro.core.exploration import ExplorationConstraints, ExplorationResult, RSPDesignSpaceExplorer
from repro.core.rsp_params import RSPParameters
from repro.core.stalls import ScheduleProfile
from repro.core.timing_model import TimingModel
from repro.engine.artifacts import ArtifactStore
from repro.engine.cache import EvaluationCache
from repro.store import JanitorReport
from repro.engine.executor import (
    EngineExplorationOutcome,
    EngineRunStats,
    ExecutorConfig,
    run_exploration,
)
from repro.engine.jobs import CampaignSpec, evaluation_context_hash, suite_kernels
from repro.ir.loops import Kernel
from repro.mapping.mapper import RSPMapper
from repro.mapping.pipeline import MappingPipeline
from repro.flowgraph.stats import stage_timings_as_dict


@dataclass
class DomainExploration:
    """What :func:`explore_domain` found for one kernel set."""

    profiles: Dict[str, ScheduleProfile]
    outcome: EngineExplorationOutcome
    profile_seconds: float
    cache: Optional[EvaluationCache] = None

    @property
    def result(self) -> ExplorationResult:
        return self.outcome.result


def explore_domain(
    pipeline: MappingPipeline,
    kernels: Sequence[Kernel],
    candidates: Optional[Sequence[RSPParameters]] = None,
    constraints: Optional[ExplorationConstraints] = None,
    *,
    cost_model: Optional[HardwareCostModel] = None,
    timing_model: Optional[TimingModel] = None,
    config: Optional[ExecutorConfig] = None,
    cache_dir: Optional[Path] = None,
    early_reject: bool = False,
) -> DomainExploration:
    """Profile ``kernels`` and explore ``candidates``.

    Profiling and exploration both read ``pipeline.base``'s array.
    ``cache_dir`` holds the evaluation cache.
    """
    started = time.perf_counter()
    profiles = pipeline.profiles_for(kernels)
    profile_seconds = time.perf_counter() - started
    explorer = RSPDesignSpaceExplorer(profiles, pipeline.base.array, cost_model, timing_model)
    cache: Optional[EvaluationCache] = None
    context: Optional[str] = None
    if cache_dir is not None:
        context = evaluation_context_hash(
            profiles, explorer.array, explorer.cost_model, explorer.timing_model
        )
        cache = EvaluationCache.for_context(cache_dir, context)
    outcome = run_exploration(
        explorer,
        candidates=candidates,
        constraints=constraints,
        config=config,
        cache=cache,
        early_reject=early_reject,
        context_hash=context,
    )
    return DomainExploration(profiles, outcome, profile_seconds, cache)


@dataclass
class SuiteReport:
    """Outcome of one suite within a campaign."""

    suite: str
    kernels: List[str]
    num_candidates: int
    num_feasible: int
    num_pareto: int
    num_early_rejected: int
    selected: Optional[str]
    selected_kind: Optional[str]
    base_area_slices: float
    base_execution_time_ns: float
    selected_area_slices: Optional[float]
    selected_execution_time_ns: Optional[float]
    cache_hits: int
    cache_misses: int
    profile_seconds: float
    explore_seconds: float
    artifact_hits: int = 0
    artifact_misses: int = 0
    mapping_seconds: float = 0.0
    mapping_stages: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def area_reduction_percent(self) -> Optional[float]:
        if self.selected_area_slices is None or self.base_area_slices <= 0:
            return None
        return 100.0 * (self.base_area_slices - self.selected_area_slices) / self.base_area_slices


@dataclass
class CampaignReport:
    """Aggregate outcome of one campaign run."""

    campaign: str
    suites: List[SuiteReport]
    #: Always ``"serial"`` and 1: the engine has one evaluation path.  The
    #: fields stay so that reports keep the format their readers parse.
    backend: str
    workers: int
    chunk_size: int
    early_reject: bool
    cache_path: Optional[str]
    total_jobs: int
    cache_hits: int
    cache_misses: int
    early_rejected: int
    wall_seconds: float
    artifact_dir: Optional[str] = None
    artifact_hits: int = 0
    artifact_misses: int = 0
    mapping_seconds: float = 0.0
    mapping_stages: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Storage-layer snapshot: backend stats of the artifact store and
    #: evaluation caches, and the janitor outcome when
    #: GC/compaction ran (see :meth:`CampaignRunner.run`).
    store_stats: Dict[str, object] = field(default_factory=dict)
    #: Total evaluation waves across all suites.
    waves: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def summary_rows(self) -> List[List[object]]:
        """Per-suite rows for a text table (suite, selection, cache, timing)."""
        rows: List[List[object]] = []
        for suite in self.suites:
            rows.append(
                [
                    suite.suite,
                    len(suite.kernels),
                    suite.num_candidates,
                    suite.num_feasible,
                    suite.num_pareto,
                    suite.num_early_rejected,
                    suite.selected or "-",
                    (
                        f"{suite.area_reduction_percent:.1f}%"
                        if suite.area_reduction_percent is not None
                        else "-"
                    ),
                    suite.cache_hits,
                    suite.cache_misses,
                    round(suite.mapping_seconds, 3),
                    round(suite.explore_seconds, 3),
                ]
            )
        return rows


#: Headers matching :meth:`CampaignReport.summary_rows`.
SUMMARY_HEADERS: Tuple[str, ...] = (
    "suite",
    "kernels",
    "candidates",
    "feasible",
    "pareto",
    "rejected",
    "selected",
    "area-R%",
    "hits",
    "misses",
    "mapping(s)",
    "explore(s)",
)


class CampaignRunner:
    """Executes a :class:`~repro.engine.jobs.CampaignSpec`.

    Parameters
    ----------
    spec:
        The campaign description (suites, grid, constraints, wave size).
    cache_dir:
        Directory for the persistent evaluation store; ``None`` disables
        persistence (evaluations are still memoised within the run).
    mapper:
        Pipeline-backed mapper to reuse; a fresh one is created when
        omitted, rooted at ``artifact_dir`` when given.
    artifact_dir:
        Directory for the persistent mapping-artifact store (typically the
        same as ``cache_dir`` — the store nests under ``artifacts/``);
        ``None`` keeps artifacts in memory.  Ignored when ``mapper`` is
        supplied.
    gc_max_age:
        When set, a post-campaign janitor pass evicts store entries not
        written or read for this many seconds.  Must be non-negative.
    compact:
        When true, the post-campaign janitor pass also compacts the
        stores (dedups/drops corrupt JSONL lines, removes corrupt pickles
        and temp strays).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        cache_dir: Optional[Path] = None,
        mapper: Optional[RSPMapper] = None,
        artifact_dir: Optional[Path] = None,
        gc_max_age: Optional[float] = None,
        compact: bool = False,
    ) -> None:
        if gc_max_age is not None and gc_max_age < 0:
            raise ValueError(f"gc_max_age must be non-negative, got {gc_max_age}")
        self.spec = spec
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.artifact_dir = Path(artifact_dir) if artifact_dir is not None else None
        self.gc_max_age = gc_max_age
        self.compact = compact
        if mapper is None:
            mapper = RSPMapper(store=ArtifactStore(self.artifact_dir))
        self.pipeline = mapper.pipeline

    def run(self) -> Tuple[CampaignReport, Dict[str, ExplorationResult]]:
        """Run every suite; returns the report and per-suite exploration results."""
        started = time.perf_counter()
        config = ExecutorConfig(chunk_size=self.spec.chunk_size)
        candidates = self.spec.candidate_grid()
        suite_reports: List[SuiteReport] = []
        results: Dict[str, ExplorationResult] = {}
        caches: List[EvaluationCache] = []
        totals = EngineRunStats()
        run_snapshot = self.pipeline.stats.snapshot()
        store_stats = self.pipeline.store.stats
        store_hits_before = store_stats.hits
        store_misses_before = store_stats.misses
        # One model pair for every suite: a design's price depends only on
        # the design and the models, so each design is priced once per run
        # (see repro.core.batch.price_design).
        cost_model = HardwareCostModel()
        timing_model = TimingModel()

        for suite_name in self.spec.suites:
            stage_snapshot = self.pipeline.stats.snapshot()
            store_suite_hits = store_stats.hits
            store_suite_misses = store_stats.misses
            kernels = suite_kernels(suite_name)
            domain = explore_domain(
                self.pipeline,
                kernels,
                candidates,
                self.spec.constraints,
                cost_model=cost_model,
                timing_model=timing_model,
                config=config,
                cache_dir=self.cache_dir,
                early_reject=self.spec.early_reject,
            )
            stage_delta = self.pipeline.stats.since(stage_snapshot)
            if domain.cache is not None:
                caches.append(domain.cache)
            outcome = domain.outcome
            exploration = outcome.result
            stats = outcome.stats
            results[suite_name] = exploration
            selected = exploration.selected
            suite_reports.append(
                SuiteReport(
                    suite=suite_name,
                    kernels=[kernel.name for kernel in kernels],
                    num_candidates=len(candidates),
                    num_feasible=len(exploration.feasible),
                    num_pareto=len(exploration.pareto),
                    num_early_rejected=len(outcome.rejected),
                    selected=selected.parameters.describe() if selected else None,
                    selected_kind=selected.parameters.kind if selected else None,
                    base_area_slices=exploration.base.area_slices,
                    base_execution_time_ns=exploration.base.total_execution_time_ns,
                    selected_area_slices=selected.area_slices if selected else None,
                    selected_execution_time_ns=(
                        selected.total_execution_time_ns if selected else None
                    ),
                    cache_hits=stats.cache_hits,
                    cache_misses=stats.cache_misses,
                    profile_seconds=domain.profile_seconds,
                    explore_seconds=stats.wall_seconds,
                    artifact_hits=store_stats.hits - store_suite_hits,
                    artifact_misses=store_stats.misses - store_suite_misses,
                    mapping_seconds=sum(delta.seconds for delta in stage_delta.values()),
                    mapping_stages=stage_timings_as_dict(stage_delta),
                )
            )
            totals.total_jobs += stats.total_jobs
            totals.cache_hits += stats.cache_hits
            totals.cache_misses += stats.cache_misses
            totals.early_rejected += stats.early_rejected
            totals.waves += stats.waves

        janitor_block: Optional[Dict[str, object]] = None
        if self.compact or self.gc_max_age is not None:
            janitor_block = self._run_janitors(caches)

        run_delta = self.pipeline.stats.since(run_snapshot)
        artifact_directory = self.pipeline.store.directory
        report = CampaignReport(
            campaign=self.spec.name,
            suites=suite_reports,
            backend="serial",
            workers=1,
            chunk_size=config.chunk_size,
            early_reject=self.spec.early_reject,
            cache_path=";".join(str(cache.path) for cache in caches) if caches else None,
            total_jobs=totals.total_jobs,
            cache_hits=totals.cache_hits,
            cache_misses=totals.cache_misses,
            early_rejected=totals.early_rejected,
            wall_seconds=time.perf_counter() - started,
            artifact_dir=str(artifact_directory) if artifact_directory is not None else None,
            artifact_hits=store_stats.hits - store_hits_before,
            artifact_misses=store_stats.misses - store_misses_before,
            mapping_seconds=sum(delta.seconds for delta in run_delta.values()),
            mapping_stages=stage_timings_as_dict(run_delta),
            store_stats=self._store_stats_block(caches, janitor_block),
            waves=totals.waves,
        )
        return report, results

    def _store_stats_block(
        self, caches: Sequence[EvaluationCache], janitor_block: Optional[Dict[str, object]]
    ) -> Dict[str, object]:
        """The report's storage snapshot."""
        return {
            "artifacts": self.pipeline.store.store_stats(),
            "janitor": janitor_block,
            "evaluations": [cache.store_stats() for cache in caches],
        }

    def _run_janitors(self, caches: Sequence[EvaluationCache]) -> Dict[str, object]:
        """Post-campaign GC/compaction over every persistent store."""
        block: Dict[str, object] = {"gc_max_age": self.gc_max_age, "compacted": self.compact}
        if self.pipeline.store.persistent:
            block["artifacts"] = self.pipeline.store.janitor(self.gc_max_age).sweep(
                compact=self.compact
            )
        evaluation_reports: List[JanitorReport] = []
        for cache in caches:
            if cache.path is not None:
                evaluation_reports.append(
                    cache.janitor(self.gc_max_age).sweep(compact=self.compact)
                )
        if evaluation_reports:
            block["evaluations"] = evaluation_reports
        return block
