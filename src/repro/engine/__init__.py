"""repro.engine — batched, cache-backed exploration campaigns.

The paper's Figure 7 evaluates every candidate design on estimates and
keeps the Pareto front.  :func:`~repro.engine.runner.explore_domain` runs
that flow for one kernel set, and :func:`repro.flow.run_rsp_flow`,
campaigns and :func:`repro.eval.report.build_report` all run it.  This
package turns it into repeatable, cache-backed campaigns:

Campaign lifecycle
    A :class:`~repro.engine.jobs.CampaignSpec` names the kernel suites,
    the candidate grid, the feasibility constraints and the wave size.
    The :class:`~repro.engine.runner.CampaignRunner` runs that flow for
    each suite and emits a :class:`~repro.engine.runner.CampaignReport`
    (a dataclass tree that serialises via
    :func:`repro.utils.serialization.to_json`).

Content-hashed jobs and the persistent cache
    Every candidate evaluation is an
    :class:`~repro.engine.jobs.EvaluationJob` whose SHA-256 identity
    covers the candidate parameters *and* the full evaluation context
    (schedule profiles, array, model calibration).  The JSON-lines
    :class:`~repro.engine.cache.EvaluationCache` memoises completed
    evaluations by that key, so repeated sweeps and overlapping grids
    never recompute — and a record can never be stale, because any input
    change changes the key.

Unified storage layer
    Both persistent stores sit on :mod:`repro.store`: lock-protected
    backends that multiple processes can write concurrently, plus a
    :class:`~repro.store.StoreJanitor` for age-based GC and compaction
    (``--gc-max-age`` and ``--compact`` on the CLI).

Wave evaluation
    The engine evaluates candidates in waves of
    :class:`~repro.engine.executor.ExecutorConfig` ``chunk_size`` jobs,
    each wave in one :class:`~repro.core.batch.BatchEvaluator` call: the
    scalar cost and timing models per candidate, and stalls from
    per-profile tables memoised by sharing capacity, so the results are
    bit-identical to the scalar models.  A dominance-based early-reject
    filter can skip provably dominated candidates before the stall
    estimation.

Incremental Pareto frontiers
    :class:`~repro.engine.frontier.ParetoFrontier` supports incremental
    insertion (a sorted sweep for the two-objective area/time case) and
    backs both the early-reject filter and the O(n log n)
    :func:`~repro.core.pareto.pareto_front_vectors` replacement.

Command line::

    python -m repro.engine --suite paper --output report.json

runs a campaign and writes the JSON report; an identical second
invocation is served almost entirely from the cache.
"""

from repro.engine.artifacts import ArtifactStore, ArtifactStoreStats
from repro.engine.cache import CacheStats, EvaluationCache
from repro.engine.executor import (
    EngineExplorationOutcome,
    EngineRunStats,
    EvaluationEngine,
    ExecutorConfig,
    run_exploration,
)
from repro.engine.frontier import ParetoFrontier, pareto_front_indices
from repro.engine.jobs import (
    SUITE_NAMES,
    CampaignSpec,
    EvaluationJob,
    evaluation_context_hash,
    hash_payload,
    suite_kernels,
)
from repro.engine.runner import CampaignReport, CampaignRunner, SuiteReport, explore_domain
from repro.store import StoreJanitor, StoreStats

__all__ = [
    "SUITE_NAMES",
    "ArtifactStore",
    "ArtifactStoreStats",
    "CacheStats",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "EngineExplorationOutcome",
    "EngineRunStats",
    "EvaluationCache",
    "EvaluationEngine",
    "EvaluationJob",
    "ExecutorConfig",
    "ParetoFrontier",
    "StoreJanitor",
    "StoreStats",
    "SuiteReport",
    "evaluation_context_hash",
    "explore_domain",
    "hash_payload",
    "pareto_front_indices",
    "run_exploration",
    "suite_kernels",
]
