"""Loop-pipelining mapper, RS/RP rearrangement and context generation."""

from repro.mapping.schedule import Schedule, ScheduledOperation
from repro.mapping.placement import ResourceTracker, column_preference
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.rearrange import (
    RearrangedSchedule,
    RearrangementResult,
    evaluate_rearrangement,
    rearrange_schedule,
    rebind_schedule,
    remap_schedule,
)
from repro.mapping.context_gen import context_statistics, generate_context
from repro.mapping.profile import extract_profile
from repro.mapping.fingerprints import (
    architecture_fingerprint,
    dfg_fingerprint,
    stage_key,
)
# The per-stage accounting types live in repro.flowgraph.stats; this
# package keeps exporting them.
from repro.flowgraph.stats import Artifact, PipelineStats, StageTiming
from repro.mapping.pipeline import MappingPipeline, MappingResult
from repro.mapping.mapper import RSPMapper

__all__ = [
    "Artifact",
    "MappingPipeline",
    "PipelineStats",
    "RearrangedSchedule",
    "StageTiming",
    "architecture_fingerprint",
    "dfg_fingerprint",
    "stage_key",
    "Schedule",
    "ScheduledOperation",
    "ResourceTracker",
    "column_preference",
    "LoopPipeliningScheduler",
    "RearrangementResult",
    "evaluate_rearrangement",
    "rearrange_schedule",
    "remap_schedule",
    "context_statistics",
    "generate_context",
    "extract_profile",
    "MappingResult",
    "RSPMapper",
]
