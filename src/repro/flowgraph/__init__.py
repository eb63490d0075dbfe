"""The executor of the paper's five mapping stages.

:class:`Flow` resolves the stages of one (kernel, target) call of a
:class:`~repro.mapping.pipeline.MappingPipeline` key first through its
:class:`~repro.engine.artifacts.ArtifactStore` (:mod:`repro.flowgraph.core`);
the stage bodies live in :mod:`repro.flowgraph.mapping` and the per-stage
accounting in :mod:`repro.flowgraph.stats`.
"""

from repro.flowgraph.core import Flow, stage_key
from repro.flowgraph.stats import (
    Artifact,
    PipelineStats,
    StageTiming,
    stage_timings_as_dict,
)

__all__ = [
    "Artifact",
    "Flow",
    "PipelineStats",
    "StageTiming",
    "stage_key",
    "stage_timings_as_dict",
]
