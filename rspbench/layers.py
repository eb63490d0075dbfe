"""Outside-in layer tracer for the benchmark's traced runs.

The tracer wraps each layer's public entry points *at the name its caller
looks up* -- a module attribute for functions imported with ``from x import
f``, a class attribute for methods -- so ``src/`` is measured without being
changed.  Spans are kept in memory and reduced to per-layer self-times
(span duration minus the part covered by wrapped child spans) when the
iteration ends.

Wrappers are installed after the workload's entry modules are imported.  A
module the workload imports lazily (``repro.core.batch``, which pulls in
numpy) is patched by an import hook when the workload itself imports it,
so tracing never moves a lazy import into set-up.  An entry point that no
longer exists is reported as absent, never as a zero.
"""

from __future__ import annotations

import functools
import importlib.abc
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Counter = Callable[[Dict[str, float], tuple, dict, Any], None]


def _dfg_ops(counts, args, kwargs, result) -> None:
    counts["ir.dfg_ops"] += len(result)


def _scheduled_ops(counts, args, kwargs, result) -> None:
    counts["mapping.scheduled_ops"] += len(result)


def _artifact_hit(counts, args, kwargs, result) -> None:
    counts["store.artifact_hits"] += 1 if result[0] else 0


def _artifact_bytes(counts, args, kwargs, result) -> None:
    backend, namespace, key = args[0], args[1], args[2]
    counts["store.artifact_bytes"] += backend.path_for(namespace, key).stat().st_size


def _eval_records(counts, args, kwargs, result) -> None:
    counts["store.eval_records"] += len(args[2])


def _exploration_stats(counts, args, kwargs, result) -> None:
    stats = result.stats
    counts["engine.jobs"] += stats.total_jobs
    counts["engine.waves"] += stats.waves
    counts["engine.cache_hits"] += stats.cache_hits
    counts["engine.cache_lookups"] += stats.cache_hits + stats.cache_misses


#: (module, attribute path, layer, extra counter).  Functions are wrapped
#: in the module their caller reads them from, so one function imported
#: into two modules is listed twice.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("repro.ir.loops", "Kernel.build", "ir.build_dfg", _dfg_ops),
    ("repro.mapping.pipeline", "dfg_fingerprint", "mapping.fingerprint", None),
    (
        "repro.mapping.loop_pipelining",
        "LoopPipeliningScheduler.schedule",
        "mapping.base_schedule",
        _scheduled_ops,
    ),
    ("repro.flowgraph.mapping", "extract_profile", "mapping.extract_profile", None),
    ("repro.flowgraph.mapping", "rearrange_schedule", "mapping.rearrange", None),
    ("repro.flowgraph.core", "Flow.run", "flowgraph.runtime", None),
    ("repro.flowgraph.core", "Flow.resolve", "flowgraph.runtime", None),
    ("repro.engine.executor", "EvaluationEngine.batch_evaluator", "core.batch_setup", None),
    ("repro.core.batch", "BatchEvaluator.evaluate", "core.batch_evaluate", None),
    ("repro.core.exploration", "RSPDesignSpaceExplorer.evaluate", "core.scalar_evaluate", None),
    ("repro.engine.runner", "run_exploration", "engine.explore", _exploration_stats),
    ("repro.engine.executor", "run_exploration", "engine.explore", _exploration_stats),
    ("repro.engine.runner", "evaluation_context_hash", "engine.context_hash", None),
    ("repro.engine.executor", "evaluation_context_hash", "engine.context_hash", None),
    ("repro.store.pickledir", "PickleDirBackend.get", "store.artifact_read", _artifact_hit),
    ("repro.store.pickledir", "PickleDirBackend.put", "store.artifact_write", _artifact_bytes),
    ("repro.engine.cache", "EvaluationCache.for_context", "store.eval_read", None),
    ("repro.store.jsonl", "ShardedJsonlBackend.get_many", "store.eval_read", None),
    ("repro.store.jsonl", "ShardedJsonlBackend.put_many", "store.eval_write", _eval_records),
    ("repro.engine.__main__", "to_json", "eval.report", None),
    ("repro.sim.simulator", "ArraySimulator.run", "sim.run", None),
)

#: Counted, not timed, in a separate pass: wrapping the scheduler's inner
#: probe makes it several times slower, so that pass's timings are dropped.
PROBE_ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("repro.mapping.placement", "ResourceTracker.placement_feasible", "mapping.probe", None),
    ("repro.mapping.placement", "ResourceTracker.claim", "mapping.claim", None),
)


class LayerTracer:
    """Spans and counters recorded around wrapped layer entry points."""

    def __init__(self, entry_points, timed: bool = True) -> None:
        self.timed = timed
        self.counts: Dict[str, float] = defaultdict(float)
        #: Closed spans as (layer, start, end, parent index or -1).
        self.spans: List[Tuple[str, float, float, int]] = []
        self.absent: List[str] = []
        self._open: List[int] = []
        self._pending: Dict[str, List[Tuple[str, str, Optional[Counter]]]] = defaultdict(list)
        for module, path, layer, counter in entry_points:
            self._pending[module].append((path, layer, counter))
        self._hook: Optional[_PatchOnImport] = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        """Patch every imported target now; the rest when first imported."""
        for module_name in list(self._pending):
            module = sys.modules.get(module_name)
            if module is not None:
                self._patch_module(module)
        if self._pending:
            self._hook = _PatchOnImport(self)
            sys.meta_path.insert(0, self._hook)
        return self

    def finish(self) -> None:
        """Stop patching on import; never-imported targets stay unmarked."""
        if self._hook is not None and self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)

    def _patch_module(self, module) -> None:
        for path, layer, counter in self._pending.pop(module.__name__, ()):
            owner = module
            *parents, attribute = path.split(".")
            try:
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = owner.__dict__[attribute] if parents else getattr(owner, attribute)
            except (AttributeError, KeyError):
                self.absent.append(f"{module.__name__}.{path}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(self._wrap(raw.__func__, layer, counter)))
            else:
                setattr(owner, attribute, self._wrap(raw, layer, counter))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _wrap(self, function, layer: str, counter: Optional[Counter]):
        counts = self.counts
        calls_key = f"{layer}_calls"
        if not self.timed:

            @functools.wraps(function)
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return function(*args, **kwargs)

            return counted

        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            index = len(spans)
            spans.append((layer, 0.0, 0.0, parent))
            open_spans.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (layer, start, end, parent)
            counts[calls_key] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def self_times(self, since: int = 0, until: Optional[int] = None) -> Dict[str, float]:
        """Per-layer self-time of spans ``since``..``until`` (by index)."""
        chosen = self.spans[since:until]
        covered = defaultdict(float)
        for layer, start, end, parent in chosen:
            if parent >= since:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for offset, (layer, start, end, _) in enumerate(chosen):
            totals[layer] += (end - start) - covered.get(since + offset, 0.0)
        return dict(totals)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Applies a tracer's pending patches right after a module executes."""

    def __init__(self, tracer: LayerTracer) -> None:
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name not in self.tracer._pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, self.tracer)
        return spec


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, tracer: LayerTracer) -> None:
        self.loader = loader
        self.tracer = tracer

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module) -> None:
        self.loader.exec_module(module)
        self.tracer._patch_module(module)
