"""The bodies of the paper's mapping stages.

:class:`~repro.flowgraph.core.Flow` decides when a stage runs and under
which store key; a body here computes one stage's value on a store miss,
reading its inputs through the flow (``flow.value("schedule")`` …).  The
bodies read ``extract_profile`` and ``rearrange_schedule`` from this
module's globals at call time, so patching them here reaches every stage
call.

``core.py`` imports this module inside the call, not at module level: the
leaf modules below import the :mod:`repro.mapping` package, which imports
``core.py`` for :func:`~repro.flowgraph.core.stage_key`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, Tuple

from repro.arch.config_cache import ConfigurationContext
from repro.core.stalls import ScheduleProfile
from repro.mapping.context_gen import generate_context
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.profile import extract_profile
from repro.mapping.rearrange import (
    RearrangedSchedule,
    RearrangementResult,
    rearrange_schedule,
    rebind_schedule,
    retiming_plan,
)
from repro.mapping.schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.arch.template import ArchitectureSpec
    from repro.flowgraph.core import Flow
    from repro.ir.loops import Kernel


def base_schedule_body(flow: "Flow") -> Schedule:
    """Loop-pipeline the kernel onto the pipeline's base architecture."""
    return LoopPipeliningScheduler(flow.pipeline.base).schedule(
        flow.value("dfg"), kernel_name=flow.kernel.name
    )


def extract_profile_body(flow: "Flow") -> ScheduleProfile:
    """Extract the stall-estimation profile of the base schedule."""
    return extract_profile(flow.value("schedule"), flow.value("dfg"))


def rearrange_body(flow: "Flow") -> RearrangedSchedule:
    """Apply the paper's RS/RP rearrangement rules (Section 4).

    The re-timing plan is kept per base schedule on the pipeline's store.
    The unlimited-shared pass reads the target only through its array,
    multiplier latency and sharing flag (never its sharing topology), so
    its length is kept per base schedule and set of those.
    """
    store = flow.pipeline.store
    base = flow.value("schedule")
    dfg = flow.value("dfg")
    target = flow.target
    base_key = flow.key("schedule")
    plan = store.retiming_plans.get(base_key)
    if plan is None:
        plan = store.retiming_plans[base_key] = retiming_plan(base, dfg)
    actual = rearrange_schedule(base, dfg, target, plan=plan)
    constraints = (base_key, target.array, target.multiplier_latency, target.uses_sharing)
    stall_free = store.stall_free_lengths.get(constraints)
    if stall_free is None:
        stall_free = store.stall_free_lengths[constraints] = rearrange_schedule(
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


def passthrough(flow: "Flow") -> RearrangedSchedule:
    """The pipeline's base keeps its base schedule, with no stalls."""
    schedule = flow.value("schedule")
    length = schedule.length
    summary = RearrangementResult(
        kernel=flow.kernel.name,
        architecture=flow.target.name,
        base_cycles=length,
        stall_free_cycles=length,
        cycles=length,
    )
    return RearrangedSchedule(schedule=schedule, summary=summary)


def generate_context_body(flow: "Flow") -> ConfigurationContext:
    """Encode the rearranged schedule into configuration contexts."""
    return generate_context(flow.value("rearranged").schedule, flow.value("dfg"))


#: Each stored stage's body and the type of the value it stores.
BODIES: Dict[str, Tuple[Callable[["Flow"], object], type]] = {
    "base_schedule": (base_schedule_body, Schedule),
    "extract_profile": (extract_profile_body, ScheduleProfile),
    "rearrange": (rearrange_body, RearrangedSchedule),
    "generate_context": (generate_context_body, ConfigurationContext),
}


# The store keys by structure, not by name: a value stored under a
# structural alias of the target carries the alias's names.  Restamping
# returns a copy under the caller's names and leaves the stored object to
# callers that use the original spelling.
def restamp_rearranged(
    value: RearrangedSchedule, target: "ArchitectureSpec"
) -> RearrangedSchedule:
    if value.summary.architecture == target.name:
        return value
    return RearrangedSchedule(
        schedule=rebind_schedule(value.schedule, target),
        summary=replace(value.summary, architecture=target.name),
    )


def restamp_context(
    value: ConfigurationContext, kernel: "Kernel", target: "ArchitectureSpec"
) -> ConfigurationContext:
    expected = f"{kernel.name}@{target.name}"
    return value if value.name == expected else value.renamed(expected)
