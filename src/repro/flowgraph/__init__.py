"""Declarative flow-graph runtime for the mapping/eval pipelines.

A :class:`Flow` is a validated DAG of :class:`Node` values.  Nodes declare
typed inputs and outputs by *value name*; the dataflow edges follow from
those declarations, while a compact edge-expression DSL
(``"build_dfg >> base_schedule >> (rearrange | passthrough) >> generate_context"``)
declares which nodes participate, how alternatives group, and any extra
ordering constraints.  Alternative groups route conditionally (the first
branch whose ``when`` predicate holds) or race (every eligible branch runs
and a selector keeps the winner).  Every node output is content-hashed and
memoised through the engine's :class:`~repro.engine.artifacts.ArtifactStore`,
with a per-node retry policy around the compute call.

The canonical client is :class:`repro.mapping.pipeline.MappingPipeline`,
which since the flow-graph refactor executes the paper's five mapping
stages as a flow built by :mod:`repro.flowgraph.mapping`; custom per-suite
flows load from JSON via :func:`Flow.from_config` /
:func:`repro.flowgraph.mapping.build_mapping_flow`.
"""

from repro.flowgraph.core import (
    Flow,
    FlowContext,
    Node,
    RetryPolicy,
    Selector,
    stage_key,
)
from repro.flowgraph.dsl import EdgeGraph, parse_edges, render_edges
from repro.flowgraph.config import flow_from_config, load_flow_config
from repro.flowgraph.stats import (
    Artifact,
    PipelineStats,
    StageTiming,
    stage_timings_as_dict,
)

__all__ = [
    "Artifact",
    "EdgeGraph",
    "Flow",
    "FlowContext",
    "Node",
    "PipelineStats",
    "RetryPolicy",
    "Selector",
    "StageTiming",
    "flow_from_config",
    "load_flow_config",
    "parse_edges",
    "render_edges",
    "stage_key",
    "stage_timings_as_dict",
]
