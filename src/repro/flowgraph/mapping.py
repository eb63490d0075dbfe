"""The paper's mapping stages as flow-graph nodes.

This module binds the five canonical stages (plus two optional variants)
to a :class:`~repro.mapping.pipeline.MappingPipeline` instance and wires
them into the default flow::

    build_dfg >> base_schedule >> extract_profile
    base_schedule >> (rearrange | passthrough) >> generate_context

``rearrange`` carries ``when !target_is_base`` and ``passthrough`` (a
virtual node whose output key is the base-schedule key) carries
``when target_is_base``, so the routed flow reproduces the legacy
pipeline's base-target behaviour byte for byte — same artifact keys, same
store traffic, same stats.

Custom flows re-wire the same registered nodes from JSON configs
(:func:`build_mapping_flow`): skip the rearrangement when the schedule
profile is balanced, or race ``rearrange`` against ``remap`` (the full
re-mapper) and keep whichever schedule is shorter.

Only *leaf* modules of :mod:`repro.mapping` are imported here — never the
package or its ``pipeline`` module — so `pipeline.py` can import this
module (lazily) without a cycle.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.arch.config_cache import ConfigurationContext
from repro.core.stalls import ScheduleProfile
from repro.flowgraph.config import ConfigSource, flow_from_config
from repro.flowgraph.core import Flow, FlowContext, Node
from repro.flowgraph.dsl import parse_edges
from repro.ir.dfg import DFG
from repro.mapping.context_gen import generate_context
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.profile import extract_profile
from repro.mapping.rearrange import (
    RearrangedSchedule,
    RearrangementResult,
    rearrange_schedule,
    rebind_schedule,
    remap_schedule,
    retiming_plan,
)
from repro.mapping.schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.mapping.pipeline import MappingPipeline

#: Seed value names every mapping flow may consume.  ``base_architecture``
#: and ``target_architecture`` are pre-keyed with their structural
#: fingerprints when the pipeline builds a context.
MAPPING_FLOW_INPUTS = ("kernel", "iterations", "base_architecture", "target_architecture")

#: The default flow's edge expressions — the canonical five-node shape.
DEFAULT_MAPPING_EDGES = (
    "build_dfg >> base_schedule >> extract_profile",
    "base_schedule >> (rearrange | passthrough) >> generate_context",
)


# ----------------------------------------------------------------------
# Routing conditions
# ----------------------------------------------------------------------
def _target_is_base(ctx: FlowContext) -> bool:
    return ctx["target_architecture"].is_base


def _profile_balanced(ctx: FlowContext) -> bool:
    """True when the base schedule never over-subscribes the target's
    shared critical resources — rearrangement then cannot add RS stalls."""
    return ctx["profile"].max_critical_per_cycle <= ctx["target_architecture"].total_shared_units


#: Named predicates usable in flow configs (``"when": "!target_is_base"``).
MAPPING_CONDITIONS: Dict[str, Callable[[FlowContext], bool]] = {
    "target_is_base": _target_is_base,
    "profile_balanced": _profile_balanced,
}


# ----------------------------------------------------------------------
# Node factories
# ----------------------------------------------------------------------
def _restamp_rearranged(value: RearrangedSchedule, ctx: FlowContext) -> RearrangedSchedule:
    # The store keys by structure, not by name; rebind the schedule and
    # restamp the summary so results carry the caller's design-point name
    # (the stored object stays untouched for consumers using the original
    # name).
    target = ctx["target_architecture"]
    if value.summary.architecture == target.name:
        return value
    return RearrangedSchedule(
        schedule=rebind_schedule(value.schedule, target),
        summary=replace(value.summary, architecture=target.name),
    )


def _restamp_context(value: ConfigurationContext, ctx: FlowContext) -> ConfigurationContext:
    expected = f"{ctx['kernel'].name}@{ctx['target_architecture'].name}"
    if value.name == expected:
        return value
    # Same structural-alias situation as for rearranged schedules: the
    # stored context carries the name of whichever spec computed it.
    return value.renamed(expected)


def node_registry(pipeline: "MappingPipeline") -> Dict[str, Callable[[], Node]]:
    """Factories for every registered mapping node, bound to ``pipeline``.

    Each call builds a fresh :class:`Node`, so per-flow config overrides
    (conditions, retry policies) never leak between flows.
    """

    def build_dfg() -> Node:
        return Node(
            "build_dfg",
            inputs=("kernel", "iterations"),
            output="dfg",
            resolver=lambda ctx: pipeline.dfg_artifact(ctx["kernel"], ctx.get("iterations")),
            persistent=False,
            output_type=DFG,
            doc="Unroll the kernel into its DFG; key = content fingerprint.",
        )

    def base_schedule() -> Node:
        return Node(
            "base_schedule",
            fn=lambda ctx: LoopPipeliningScheduler(ctx["base_architecture"]).schedule(
                ctx["dfg"], kernel_name=ctx["kernel"].name
            ),
            inputs=("dfg", "base_architecture", "kernel"),
            output="schedule",
            key_inputs={"dfg": "dfg", "architecture": "base_architecture"},
            output_type=Schedule,
            input_types={"dfg": DFG},
            doc="Loop-pipeline the kernel onto the base architecture.",
        )

    def extract_profile_node() -> Node:
        return Node(
            "extract_profile",
            fn=lambda ctx: extract_profile(ctx["schedule"], ctx["dfg"]),
            inputs=("schedule", "dfg"),
            output="profile",
            key_inputs={"schedule": "schedule", "dfg": "dfg"},
            output_type=ScheduleProfile,
            input_types={"schedule": Schedule, "dfg": DFG},
            doc="Extract the stall-estimation profile of the base schedule.",
        )

    def rearrange() -> Node:
        stall_free_lengths = pipeline.store.stall_free_lengths
        plans = pipeline.store.retiming_plans

        def compute(ctx: FlowContext) -> RearrangedSchedule:
            base = ctx["schedule"]
            dfg = ctx["dfg"]
            target = ctx["target_architecture"]
            base_key = ctx.key_of("schedule")
            plan = plans.get(base_key)
            if plan is None:
                plan = plans[base_key] = retiming_plan(base, dfg)
            actual = rearrange_schedule(base, dfg, target, plan=plan)
            # The unlimited-shared pass reads the target only through these
            # (never its sharing topology), so it runs once per set of them.
            constraints = (
                base_key,
                target.array,
                target.multiplier_latency,
                target.uses_sharing,
            )
            stall_free = stall_free_lengths.get(constraints)
            if stall_free is None:
                stall_free = stall_free_lengths[constraints] = rearrange_schedule(
                    base, dfg, target, unlimited_shared=True, plan=plan
                ).length
            summary = RearrangementResult(
                kernel=base.kernel_name,
                architecture=target.name,
                base_cycles=base.length,
                stall_free_cycles=stall_free,
                cycles=actual.length,
            )
            return RearrangedSchedule(schedule=actual, summary=summary)

        return Node(
            "rearrange",
            fn=compute,
            inputs=("schedule", "dfg", "target_architecture"),
            output="rearranged",
            key_inputs={
                "schedule": "schedule",
                "dfg": "dfg",
                "architecture": "target_architecture",
            },
            when=lambda ctx: not _target_is_base(ctx),
            when_label="!target_is_base",
            adapt=_restamp_rearranged,
            output_type=RearrangedSchedule,
            input_types={"schedule": Schedule, "dfg": DFG},
            doc="Apply the paper's RS/RP rearrangement rules (Section 4).",
        )

    def passthrough() -> Node:
        def compute(ctx: FlowContext) -> RearrangedSchedule:
            schedule = ctx["schedule"]
            length = schedule.length
            summary = RearrangementResult(
                kernel=ctx["kernel"].name,
                architecture=ctx["target_architecture"].name,
                base_cycles=length,
                stall_free_cycles=length,
                cycles=length,
            )
            return RearrangedSchedule(schedule=schedule, summary=summary)

        return Node(
            "passthrough",
            fn=compute,
            inputs=("schedule", "kernel", "target_architecture"),
            output="rearranged",
            virtual=True,
            key_from="schedule",
            when=_target_is_base,
            when_label="target_is_base",
            output_type=RearrangedSchedule,
            doc="Base targets keep the base schedule; the key chain skips "
            "this node entirely (downstream keys see the schedule key).",
        )

    def remap() -> Node:
        def compute(ctx: FlowContext) -> RearrangedSchedule:
            base = ctx["schedule"]
            target = ctx["target_architecture"]
            remapped = remap_schedule(ctx["dfg"], target, kernel_name=ctx["kernel"].name)
            summary = RearrangementResult(
                kernel=base.kernel_name,
                architecture=target.name,
                base_cycles=base.length,
                # A full re-map schedules directly on the target, so its
                # length is its own stall-free reference (stalls = 0).
                stall_free_cycles=remapped.length,
                cycles=remapped.length,
            )
            return RearrangedSchedule(schedule=remapped, summary=summary)

        return Node(
            "remap",
            fn=compute,
            inputs=("schedule", "dfg", "kernel", "target_architecture"),
            output="rearranged",
            key_inputs={"dfg": "dfg", "architecture": "target_architecture"},
            when=lambda ctx: not _target_is_base(ctx),
            when_label="!target_is_base",
            adapt=_restamp_rearranged,
            output_type=RearrangedSchedule,
            input_types={"dfg": DFG},
            doc="Fully re-map the DFG onto the target (the 'smarter mapper' "
            "upper-bound variant); race it against rearrange.",
        )

    def generate_context_node() -> Node:
        return Node(
            "generate_context",
            fn=lambda ctx: generate_context(ctx["rearranged"].schedule, ctx["dfg"]),
            inputs=("rearranged", "dfg", "kernel", "target_architecture"),
            output="context",
            key_inputs={"schedule": "rearranged", "dfg": "dfg"},
            adapt=_restamp_context,
            output_type=ConfigurationContext,
            input_types={"rearranged": RearrangedSchedule, "dfg": DFG},
            doc="Encode the routed schedule into configuration contexts.",
        )

    return {
        "build_dfg": build_dfg,
        "base_schedule": base_schedule,
        "extract_profile": extract_profile_node,
        "rearrange": rearrange,
        "passthrough": passthrough,
        "remap": remap,
        "generate_context": generate_context_node,
    }


# ----------------------------------------------------------------------
# Flow construction
# ----------------------------------------------------------------------
def build_mapping_flow(
    pipeline: "MappingPipeline",
    config: Optional[ConfigSource] = None,
) -> Flow:
    """The mapping flow of ``pipeline``: canonical by default, or rewired
    from a JSON/dict config (see :mod:`repro.flowgraph.config`)."""
    registry = node_registry(pipeline)
    if config is None:
        nodes = [
            registry[name]()
            for name in (
                "build_dfg",
                "base_schedule",
                "extract_profile",
                "rearrange",
                "passthrough",
                "generate_context",
            )
        ]
        return Flow(
            nodes,
            parse_edges(list(DEFAULT_MAPPING_EDGES)),
            name="mapping",
            inputs=MAPPING_FLOW_INPUTS,
            description="The paper's five-stage mapping flow (Figure 7).",
        )
    return flow_from_config(
        config,
        registry=registry,
        conditions=MAPPING_CONDITIONS,
        inputs=MAPPING_FLOW_INPUTS,
        name="mapping",
    )
