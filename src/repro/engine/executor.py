"""The evaluation engine and its exploration loop.

The engine turns a candidate list into
:class:`~repro.engine.jobs.EvaluationJob`\\ s and evaluates them in
*waves* of ``chunk_size`` pending jobs.  Each wave gets one batched cache
lookup and — when enabled — a dominance-based **early-reject filter**:
before the stall estimation runs, a candidate's exact area and an
execution-time *lower bound* (base cycles × candidate clock period;
stalls only ever add cycles) are compared against the incremental Pareto
frontier of already-completed feasible points.  A candidate whose lower
bound is already strictly beaten is provably dominated, can never join
the Pareto front, and is skipped outright.  The wave's remaining jobs are
evaluated by one :class:`~repro.core.batch.BatchEvaluator` call, stored
with one ``put_many`` and merged into the frontier with one ``add_many``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batch import BatchEvaluator, price_design
from repro.core.exploration import (
    DesignPointEvaluation,
    ExplorationConstraints,
    ExplorationResult,
    RSPDesignSpaceExplorer,
    is_feasible,
)
from repro.core.pareto import knee_point, pareto_front
from repro.core.rsp_params import RSPParameters, base_parameters, enumerate_design_space
from repro.engine.cache import EvaluationCache
from repro.engine.frontier import ParetoFrontier
from repro.engine.jobs import EvaluationJob, evaluation_context_hash
from repro.errors import ExplorationError

#: The exploration's two objectives (both minimised).
AREA_TIME_OBJECTIVES = (
    lambda evaluation: evaluation.area_slices,
    lambda evaluation: evaluation.total_execution_time_ns,
)


@dataclass(frozen=True)
class ExecutorConfig:
    """Wave sizing for one engine run.

    ``chunk_size`` is the number of pending jobs per wave: the unit of
    one batched cache lookup, one batch evaluation and one batched
    store.
    """

    chunk_size: int = 8

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ExplorationError("chunk_size must be at least 1")


@dataclass
class EngineRunStats:
    """Counters of one engine exploration run."""

    chunk_size: int = 8
    total_jobs: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    early_rejected: int = 0
    #: Waves dispatched.
    waves: int = 0
    wall_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


@dataclass
class EngineExplorationOutcome:
    """An :class:`ExplorationResult` plus the engine's run statistics."""

    result: ExplorationResult
    stats: EngineRunStats
    rejected: List[RSPParameters] = field(default_factory=list)


def _chunked(items: Sequence, size: int) -> List[List]:
    return [list(items[start : start + size]) for start in range(0, len(items), size)]


class EvaluationEngine:
    """Evaluates job lists through a cache, the reject filter and the
    batch evaluator.

    The engine wraps an :class:`RSPDesignSpaceExplorer` (which carries the
    profiles, the array and the calibrated models, and estimates one
    candidate at a time) and adds waves, memoised stall tables, persistent
    memoisation and dominance pruning.
    """

    def __init__(
        self,
        explorer: RSPDesignSpaceExplorer,
        config: Optional[ExecutorConfig] = None,
        cache: Optional[EvaluationCache] = None,
        context_hash: Optional[str] = None,
    ) -> None:
        self.explorer = explorer
        self.config = config or ExecutorConfig()
        self.cache = cache
        self._context_hash = context_hash
        self._batch_evaluator: Optional[BatchEvaluator] = None

    @property
    def context_hash(self) -> str:
        """Digest of the evaluation context (computed once, lazily).

        A caller that has already hashed the explorer's context passes the
        digest to the constructor.  Otherwise it is cached on the explorer
        itself, not just this engine: the digest covers the profiles and
        models the explorer was constructed with (none of which are
        reassigned after construction), and hashing them walks every
        schedule profile — tens of milliseconds that
        :func:`run_exploration` would otherwise pay again for every
        sweep over the same explorer.
        """
        if self._context_hash is None:
            cached = getattr(self.explorer, "_evaluation_context_hash", None)
            if cached is None:
                cached = evaluation_context_hash(
                    self.explorer.profiles,
                    self.explorer.array,
                    self.explorer.cost_model,
                    self.explorer.timing_model,
                )
                self.explorer._evaluation_context_hash = cached
            self._context_hash = cached
        return self._context_hash

    def batch_evaluator(self) -> BatchEvaluator:
        """The wave evaluator, built once per engine on first use.

        :meth:`evaluate_jobs` asks for it only at a wave with a job to
        evaluate, so a run served wholly from the cache builds no
        profile tables.
        """
        if self._batch_evaluator is None:
            self._batch_evaluator = BatchEvaluator(
                self.explorer.profiles,
                array=self.explorer.array,
                cost_model=self.explorer.cost_model,
                timing_model=self.explorer.timing_model,
            )
        return self._batch_evaluator

    # ------------------------------------------------------------------
    # Single-job path (base point, ad-hoc evaluations)
    # ------------------------------------------------------------------
    def evaluate_job(self, job: EvaluationJob, stats: Optional[EngineRunStats] = None) -> DesignPointEvaluation:
        """Evaluate one job through the cache."""
        if self.cache is None:
            evaluation = self.explorer.evaluate(job.parameters, name=job.name)
            if stats is not None:
                stats.evaluated += 1
            return evaluation
        key = job.content_hash(self.context_hash)
        cached = self.cache.get(key, job, self.explorer.array)
        if cached is not None:
            if stats is not None:
                stats.cache_hits += 1
            return cached
        evaluation = self.explorer.evaluate(job.parameters, name=job.name)
        self.cache.put(key, evaluation)
        if stats is not None:
            stats.cache_misses += 1
            stats.evaluated += 1
        return evaluation

    # ------------------------------------------------------------------
    # Wave path
    # ------------------------------------------------------------------
    def evaluate_jobs(
        self,
        jobs: Sequence[EvaluationJob],
        stats: EngineRunStats,
        reject_frontier: Optional[ParetoFrontier] = None,
        lower_bound_cycles: int = 0,
        base_evaluation: Optional[DesignPointEvaluation] = None,
        constraints: Optional[ExplorationConstraints] = None,
    ) -> Tuple[Dict[int, DesignPointEvaluation], List[int]]:
        """Evaluate ``jobs``; returns (index → evaluation, rejected indices).

        When ``reject_frontier`` is given, candidates whose execution-time
        lower bound is already strictly beaten by a completed feasible
        point at no larger area are skipped before stall estimation, and
        feasible results are merged into the frontier as waves finish.
        """
        results: Dict[int, DesignPointEvaluation] = {}
        rejected: List[int] = []
        effective_constraints = constraints or ExplorationConstraints()

        def feasible(evaluation: DesignPointEvaluation) -> bool:
            return base_evaluation is not None and is_feasible(
                evaluation, base_evaluation, effective_constraints
            )

        for wave in _chunked(range(len(jobs)), self.config.chunk_size):
            if self.cache is not None:
                # One batched lookup per wave (one get_many on the
                # backend); the per-key gets below are then answered from
                # the cache's in-process front.
                self.cache.prefetch(
                    [jobs[index].content_hash(self.context_hash) for index in wave]
                )
            misses: List[int] = []
            for index in wave:
                job = jobs[index]
                if self.cache is not None:
                    key = job.content_hash(self.context_hash)
                    cached = self.cache.get(key, job, self.explorer.array)
                    if cached is not None:
                        stats.cache_hits += 1
                        results[index] = cached
                        if reject_frontier is not None and feasible(cached):
                            reject_frontier.add(
                                (cached.area_slices, cached.total_execution_time_ns)
                            )
                        continue
                    stats.cache_misses += 1
                if reject_frontier is not None and self._early_reject(
                    job, reject_frontier, lower_bound_cycles
                ):
                    stats.early_rejected += 1
                    rejected.append(index)
                    continue
                misses.append(index)

            evaluations: List[DesignPointEvaluation] = []
            if misses:
                evaluations = self.batch_evaluator().evaluate(
                    [jobs[index].parameters for index in misses],
                    names=[jobs[index].name for index in misses],
                )

            fresh: Dict[str, DesignPointEvaluation] = {}
            computed_vectors: List[Tuple[float, float]] = []
            for index, evaluation in zip(misses, evaluations):
                results[index] = evaluation
                stats.evaluated += 1
                if reject_frontier is not None and feasible(evaluation):
                    computed_vectors.append(
                        (evaluation.area_slices, evaluation.total_execution_time_ns)
                    )
                if self.cache is not None:
                    fresh[jobs[index].content_hash(self.context_hash)] = evaluation
            if reject_frontier is not None and computed_vectors:
                # One bulk merge per wave instead of m binary insertions.
                reject_frontier.add_many(computed_vectors)
            if self.cache is not None and fresh:
                # One batched store per wave (one locked append on a JSONL
                # cache).
                self.cache.put_many(fresh)
            stats.waves += 1
        return results, rejected

    def _early_reject(
        self,
        job: EvaluationJob,
        frontier: ParetoFrontier,
        lower_bound_cycles: int,
    ) -> bool:
        """True when ``job`` is provably dominated before stall estimation.

        The candidate's area and clock period are its price
        (:func:`~repro.core.batch.price_design`, which the batch evaluation
        of a surviving candidate then reuses); its execution time is at
        least ``lower_bound_cycles`` (the stall-free base schedule) times
        the period.  If a completed feasible point with no larger area
        already achieves a *strictly* smaller time than that bound, the
        candidate's true objective vector is dominated regardless of its
        stall count.
        """
        if not len(frontier):
            return False
        explorer = self.explorer
        _, area, period = price_design(
            job.parameters, job.name, explorer.array, explorer.cost_model, explorer.timing_model
        )
        lower_bound_time = lower_bound_cycles * period
        return frontier.min_second_objective_at_or_below(area) < lower_bound_time


# ----------------------------------------------------------------------
# The engine's exploration loop
# ----------------------------------------------------------------------
def run_exploration(
    explorer: RSPDesignSpaceExplorer,
    candidates: Optional[Sequence[RSPParameters]] = None,
    constraints: Optional[ExplorationConstraints] = None,
    config: Optional[ExecutorConfig] = None,
    cache: Optional[EvaluationCache] = None,
    early_reject: bool = False,
    context_hash: Optional[str] = None,
) -> EngineExplorationOutcome:
    """Run a full exploration through the engine.

    With ``early_reject`` off, the result is that of a serial walk of
    :meth:`RSPDesignSpaceExplorer.evaluate`: the same candidates in the
    same order, feasibility filter, Pareto front and knee-point selection,
    only in waves, batched and cached.  With ``early_reject`` on, provably
    dominated candidates are skipped; the front and the selected design
    are unchanged, but the ``evaluated`` and ``feasible`` lists omit the
    rejected points (returned separately).

    ``context_hash`` is the :func:`evaluation_context_hash` of
    ``explorer`` when the caller has already computed it (hashed here,
    only when a cache needs keys, otherwise).
    """
    started = time.perf_counter()
    constraints = constraints or ExplorationConstraints()
    candidate_list = list(candidates) if candidates is not None else enumerate_design_space()
    config = config or ExecutorConfig()
    engine = EvaluationEngine(explorer, config=config, cache=cache, context_hash=context_hash)
    stats = EngineRunStats(chunk_size=config.chunk_size)

    # The base point is evaluated exactly once, up front: it anchors the
    # feasibility constraints and stands in for any "base" candidates.
    base_job = EvaluationJob(parameters=base_parameters(), name="Base")
    base_evaluation = engine.evaluate_job(base_job, stats)

    job_indices: List[int] = []
    jobs: List[EvaluationJob] = []
    for position, parameters in enumerate(candidate_list):
        if parameters.kind == "base":
            continue
        job_indices.append(position)
        jobs.append(EvaluationJob(parameters=parameters))
    # Distinct evaluation jobs: the non-base candidates plus the single
    # base evaluation ("base" entries in the candidate list reuse it).
    stats.total_jobs = len(jobs) + 1

    reject_frontier: Optional[ParetoFrontier] = None
    lower_bound_cycles = 0
    if early_reject:
        reject_frontier = ParetoFrontier(num_objectives=2)
        if is_feasible(base_evaluation, base_evaluation, constraints):
            reject_frontier.add(
                (base_evaluation.area_slices, base_evaluation.total_execution_time_ns)
            )
        lower_bound_cycles = sum(profile.length for profile in explorer.profiles.values())

    results, rejected_positions = engine.evaluate_jobs(
        jobs,
        stats,
        reject_frontier=reject_frontier,
        lower_bound_cycles=lower_bound_cycles,
        base_evaluation=base_evaluation,
        constraints=constraints,
    )

    by_candidate: Dict[int, DesignPointEvaluation] = {}
    for local_index, candidate_index in enumerate(job_indices):
        if local_index in results:
            by_candidate[candidate_index] = results[local_index]

    evaluated: List[DesignPointEvaluation] = []
    rejected: List[RSPParameters] = []
    for position, parameters in enumerate(candidate_list):
        if parameters.kind == "base":
            evaluated.append(base_evaluation)
        elif position in by_candidate:
            evaluated.append(by_candidate[position])
        else:
            rejected.append(parameters)

    feasible = [
        evaluation
        for evaluation in evaluated
        if is_feasible(evaluation, base_evaluation, constraints)
    ]
    pareto = pareto_front(feasible, objectives=AREA_TIME_OBJECTIVES)
    selected = knee_point(pareto, objectives=AREA_TIME_OBJECTIVES) if pareto else None

    stats.wall_seconds = time.perf_counter() - started
    result = ExplorationResult(
        base=base_evaluation,
        evaluated=evaluated,
        feasible=feasible,
        pareto=pareto,
        selected=selected,
    )
    return EngineExplorationOutcome(result=result, stats=stats, rejected=rejected)
