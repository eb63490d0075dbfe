"""Per-node execution accounting shared by every flow.

One :class:`StageTiming` per node name and one :class:`Artifact` per
materialised output: they describe *any* flow's execution, not something
mapping-specific.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.trace.db import percentile
from repro.trace.spans import get_tracer

#: Dataflow order of the canonical mapping flow's five nodes — the default
#: report ordering of per-stage timing blocks.  Custom-flow node names not
#: listed here sort after these, in first-recorded order.
DEFAULT_STAGE_ORDER: Tuple[str, ...] = (
    "build_dfg",
    "base_schedule",
    "extract_profile",
    "rearrange",
    "generate_context",
)


@dataclass
class Artifact:
    """One node output together with its provenance.

    Attributes
    ----------
    stage:
        Name of the producing node (its artifact namespace in the store).
    key:
        SHA-256 input hash that identifies the artifact in the store.
    value:
        The node's output object.
    from_store:
        True when the value was served by the artifact store rather than
        computed in this call.
    seconds:
        Self-time spent obtaining the value (compute time on a miss,
        fetch time on a hit), excluding upstream nodes materialised
        meanwhile.
    """

    stage: str
    key: str
    value: Any
    from_store: bool = False
    seconds: float = 0.0


@dataclass
class StageTiming:
    """Hit/miss counters, self-time and duration samples of one node."""

    stage: str
    hits: int = 0
    misses: int = 0
    seconds: float = 0.0
    #: Individual invocation durations (hit fetches and miss computes
    #: alike) — the sample behind the report's per-stage p50/p95.
    durations: List[float] = field(default_factory=list)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class PipelineStats:
    """Per-node counters of one flow-backed pipeline."""

    def __init__(self) -> None:
        self.stages: Dict[str, StageTiming] = {}

    def timing(self, stage: str) -> StageTiming:
        if stage not in self.stages:
            self.stages[stage] = StageTiming(stage=stage)
        return self.stages[stage]

    def record(self, stage: str, hit: bool, seconds: float) -> None:
        timing = self.timing(stage)
        if hit:
            timing.hits += 1
        else:
            timing.misses += 1
        timing.seconds += seconds
        timing.durations.append(seconds)
        # Single choke point for node observability: every flow execution
        # path funnels through here, so span counts always equal hit + miss
        # counts and ``python -m repro.trace stages`` matches the report.
        tracer = get_tracer()
        if tracer.active:
            tracer.record_span(stage, kind="stage", duration_s=seconds, hit=hit)

    @property
    def total_seconds(self) -> float:
        return sum(timing.seconds for timing in self.stages.values())

    def snapshot(self) -> Dict[str, Tuple[int, int, float, int]]:
        """Freeze the current counters (used to compute per-suite deltas)."""
        return {
            name: (timing.hits, timing.misses, timing.seconds, len(timing.durations))
            for name, timing in self.stages.items()
        }

    def since(self, snapshot: Dict[str, Tuple[int, int, float, int]]) -> Dict[str, StageTiming]:
        """Counters accumulated after :meth:`snapshot` returned ``snapshot``."""
        deltas: Dict[str, StageTiming] = {}
        for name, timing in self.stages.items():
            hits, misses, seconds, seen = snapshot.get(name, (0, 0, 0.0, 0))
            delta = StageTiming(
                stage=name,
                hits=timing.hits - hits,
                misses=timing.misses - misses,
                seconds=timing.seconds - seconds,
                durations=list(timing.durations[seen:]),
            )
            if delta.lookups or delta.seconds:
                deltas[name] = delta
        return deltas


def stage_timings_as_dict(
    timings: Dict[str, StageTiming], order: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """JSON-friendly form of a per-node timing delta map.

    ``p50``/``p95`` come from the per-invocation duration samples through
    :func:`repro.trace.db.percentile` — the same function the trace
    dashboard applies to stage spans, so both views always agree.  The
    canonical five mapping nodes lead in dataflow order; any other node
    names (custom flow variants) follow in first-recorded order.
    """
    order = DEFAULT_STAGE_ORDER if order is None else order
    ordered = [name for name in order if name in timings]
    ordered += [name for name in timings if name not in order]
    return {
        name: {
            "hits": timings[name].hits,
            "misses": timings[name].misses,
            "seconds": round(timings[name].seconds, 6),
            "p50": round(percentile(timings[name].durations, 0.50), 6),
            "p95": round(percentile(timings[name].durations, 0.95), 6),
        }
        for name in ordered
    }


def merge_stage_timings(
    *deltas: Dict[str, StageTiming],
) -> Dict[str, StageTiming]:
    """Combine several per-node timing delta maps into one.

    The campaign runner uses this to fold separate accounting windows of
    the same suite (profile mapping, then the selected-point mapping of a
    custom flow) into a single ``mapping_stages`` block.
    """
    merged: Dict[str, StageTiming] = {}
    for delta in deltas:
        for name, timing in delta.items():
            into = merged.setdefault(name, StageTiming(stage=name))
            into.hits += timing.hits
            into.misses += timing.misses
            into.seconds += timing.seconds
            into.durations.extend(timing.durations)
    return merged

