"""Per-stage accounting of the mapping stages.

One :class:`StageTiming` per stage name and one :class:`Artifact` per
resolved output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

#: Dataflow order of the five mapping stages — the report ordering of
#: per-stage timing blocks.
DEFAULT_STAGE_ORDER: Tuple[str, ...] = (
    "build_dfg",
    "base_schedule",
    "extract_profile",
    "rearrange",
    "generate_context",
)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation.

    The repo's one percentile convention: the campaign report's
    per-stage p50/p95 (:func:`stage_timings_as_dict`) go through it.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


@dataclass
class Artifact:
    """One stage output together with its provenance.

    Attributes
    ----------
    stage:
        Name of the producing stage (its artifact namespace in the store).
    key:
        SHA-256 input hash that identifies the artifact in the store.
    value:
        The stage's output object.
    from_store:
        True when the value was served by the artifact store rather than
        computed in this call.
    seconds:
        Self-time spent obtaining the value (compute time on a miss,
        fetch time on a hit), excluding upstream stages resolved
        meanwhile.
    """

    stage: str
    key: str
    value: Any
    from_store: bool = False
    seconds: float = 0.0


@dataclass
class StageTiming:
    """Hit/miss counters, self-time and duration samples of one stage."""

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
    """Per-stage counters of one mapping pipeline."""

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


def stage_timings_as_dict(timings: Dict[str, StageTiming]) -> Dict[str, Dict[str, float]]:
    """JSON-friendly form of a per-stage timing delta map, in dataflow order.

    ``p50``/``p95`` come from the per-invocation duration samples through
    :func:`percentile`.
    """
    return {
        name: {
            "hits": timings[name].hits,
            "misses": timings[name].misses,
            "seconds": round(timings[name].seconds, 6),
            "p50": round(percentile(timings[name].durations, 0.50), 6),
            "p95": round(percentile(timings[name].durations, 0.95), 6),
        }
        for name in DEFAULT_STAGE_ORDER
        if name in timings
    }

