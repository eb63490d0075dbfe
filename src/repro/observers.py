"""The one campaign observer protocol every hook in the repo speaks.

:class:`CampaignObserver` is the single no-op base with every callback.
The engine's :class:`~repro.engine.executor.WaveObserver` is an alias of
it, and the tracer's per-suite
:class:`~repro.trace.collect.TracingWaveObserver` implements it; a
campaign hands one such observer to the engine's and the mapping
pipeline's observer slot.

Flow-graph nodes emit into the same protocol: the runtime in
:mod:`repro.flowgraph.core` calls :meth:`CampaignObserver.node_finished`
with a :class:`~repro.flowgraph.core.NodeEvent` after every node it
materialises, so one observer can watch waves *and* the per-stage
dataflow that produced each candidate.

Nothing here imports the engine, the tracer or the flow runtime — the
protocol is the leaf everything else depends on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.engine.executor import WaveOutcome
    from repro.flowgraph.core import NodeEvent


class CampaignObserver:
    """No-op base class for campaign observers (override what you need).

    Wave callbacks fire from the engine's executor: :meth:`wave_started`
    immediately before a wave dispatches, :meth:`wave_finished` after its
    results (including cache hits discovered while assembling it) are in,
    and :meth:`base_evaluated` once per exploration for the up-front
    base-point job, which never travels through a wave.

    :meth:`node_finished` fires from the flow-graph runtime after every
    node materialisation — store hits and fresh computes alike — carrying
    the node's output name, artifact key, timing and routing decision.
    """

    # -- wave lifecycle ------------------------------------------------
    def wave_started(self, wave_index: int, job_count: int) -> None:  # pragma: no cover
        pass

    def wave_finished(self, outcome: "WaveOutcome") -> None:  # pragma: no cover
        pass

    def base_evaluated(
        self, key: str, evaluation: Any, source: str, feasible: Optional[bool]
    ) -> None:  # pragma: no cover
        pass

    # -- flow-node lifecycle -------------------------------------------
    def node_finished(self, event: "NodeEvent") -> None:  # pragma: no cover
        pass


__all__ = ["CampaignObserver"]
