"""Configuration-context rearrangement for RS, RP and RSP (paper Section 4).

The paper derives the schedule of a sharing/pipelining design point from the
*initial* configuration contexts of the base architecture by rearranging
them according to two rules:

1. **RS rule** — shared resources are assigned to PEs in the order of loop
   iteration; when shared resources are lacking in a cycle, the operations
   of later loop iterations are moved to the next cycle (an *RS stall*).
2. **RP rule** — operations on pipelined resources take multiple cycles, so
   operations that depend on their results are stalled together (an *RP
   stall*); consecutive pipelined operations overlap, removing the shared
   cycles.

:func:`rearrange_schedule` implements both rules by re-timing the base
schedule while keeping every operation on the PE the base mapping chose:
operations are visited in (base cycle, iteration) order and placed at the
earliest cycle — no earlier than their base cycle — at which their operands
are available and their PE, row bus and (for multiplications) a reachable
shared multiplier issue slot are free.  Keeping the base placement is what
distinguishes rearrangement from a full re-mapping and is exactly why the
stall counts of the paper's Tables 4/5 are an upper bound on what a smarter
mapper could achieve; :func:`remap_schedule` provides that smarter full
re-mapping for comparison (used by the ablation benchmarks).

The re-timing loop costs per operation, not per search (most operations
place at their first probe), so it is kept lean.  What it needs from the
base schedule and the DFG alone — the visit order, each operation's PE and
base cycle, and which earlier visits produce its operands — is a
re-timing plan (:func:`retiming_plan`); a pass then reads operand
finish cycles by visit index, caches latency and PE occupancy per
operation class and appends each placement to the schedule's columns
(:meth:`Schedule.append`) without building entry objects.  Every probe is a
:meth:`ResourceTracker.try_claim`, which checks a cycle with the rules the
base scheduler applies and, when it fits, records the claims in the same
pass.

RS stalls are counted against a stall-free pass with unlimited shared
multipliers (``unlimited_shared=True``).  That pass reads the target only
through its array, its multiplier latency and whether it shares, so the
``rearrange`` stage (:mod:`repro.flowgraph.mapping`) runs it once per
such constraint set, and builds one plan per base schedule for all its
passes; :func:`evaluate_rearrangement` is the uncached two-pass reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.template import ArchitectureSpec
from repro.errors import MappingError, SchedulingError
from repro.ir.dfg import DFG, OpType
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.placement import ResourceTracker
from repro.mapping.schedule import Schedule

#: Operation types that never occupy a PE slot.
_UNSCHEDULED_OPTYPES = (OpType.CONST, OpType.NOP)

#: Safety bound on how far a single operation may be pushed past its
#: dependence-feasible cycle while searching for free resources.
_MAX_PUSH = 100000


#: One visit of a re-timing plan: the operation's position in the base
#: schedule's columns, its base cycle, row and column, the indices of the
#: earlier visits producing its operands, and whether it multiplies.
RetimingStep = Tuple[int, int, int, int, Tuple[int, ...], bool]

#: The part of a rearrangement that depends only on the base schedule: its
#: entries in (base cycle, iteration, col, row) visit order.
RetimingPlan = Tuple[RetimingStep, ...]


def retiming_plan(base_schedule: Schedule, dfg: DFG) -> RetimingPlan:
    """The re-timing plan of ``base_schedule``, mapped from ``dfg``.

    Producers that are CONST or NOP operations are left out; they are
    available from cycle 0.  Raises :class:`MappingError` when an operation
    depends on another that no earlier visit places: one missing from the
    base schedule.
    """
    operations, cycles, rows, cols, *_ = base_schedule.columns()
    order = sorted(
        range(len(operations)),
        key=lambda position: (
            cycles[position],
            operations[position].iteration,
            cols[position],
            rows[position],
        ),
    )
    # Visit index of each placed operation that produces a value.
    visit_of: Dict[str, int] = {}
    steps: List[RetimingStep] = []
    for visit, position in enumerate(order):
        operation = operations[position]
        name = operation.name
        producers: List[int] = []
        for producer in dfg.predecessors(name):
            producer_visit = visit_of.get(producer)
            if producer_visit is None:
                if dfg.operation(producer).optype in _UNSCHEDULED_OPTYPES:
                    continue
                raise MappingError(
                    f"operation {name!r} depends on {producer!r} which is "
                    f"not part of the base schedule"
                )
            producers.append(producer_visit)
        optype = operation.optype
        if optype not in _UNSCHEDULED_OPTYPES:
            visit_of[name] = visit
        steps.append(
            (
                position,
                cycles[position],
                rows[position],
                cols[position],
                tuple(producers),
                optype is OpType.MUL,
            )
        )
    return tuple(steps)


def rearrange_schedule(
    base_schedule: Schedule,
    dfg: DFG,
    target: ArchitectureSpec,
    unlimited_shared: bool = False,
    plan: Optional[RetimingPlan] = None,
) -> Schedule:
    """Apply the RS/RP rearrangement rules to a base-architecture schedule.

    Parameters
    ----------
    base_schedule:
        The initial configuration context (schedule on the base
        architecture) produced by :class:`LoopPipeliningScheduler`.
    dfg:
        The kernel dataflow graph the base schedule was produced from.
    target:
        The RS/RP/RSP design point to rearrange for.
    unlimited_shared:
        When True the shared-multiplier capacity constraint is lifted; the
        resulting length is the stall-free reference used to count RS
        stalls (RP stretching is still applied).
    plan:
        ``retiming_plan(base_schedule, dfg)`` of this base schedule, when
        the caller keeps one for several passes; built here when omitted.

    Returns
    -------
    Schedule
        The rearranged schedule on ``target``.
    """
    if plan is None:
        plan = retiming_plan(base_schedule, dfg)
    scheduler = LoopPipeliningScheduler(target)
    tracker = ResourceTracker(target, unlimited_shared=unlimited_shared)
    rearranged = Schedule(target, kernel_name=base_schedule.kernel_name)
    try_claim = tracker.try_claim
    append = rearranged.append
    operations = base_schedule.columns().operations
    # Finish cycle of every visit so far, by visit index.
    finish_cycles: List[int] = []
    record_finish = finish_cycles.append
    # (latency, PE occupancy) on ``target``.  The scheduler's model depends
    # on an operation only through whether it is a multiplication.
    timing: Dict[bool, Tuple[int, int]] = {}
    for position, earliest, row, col, producers, multiplication in plan:
        operation = operations[position]
        known = timing.get(multiplication)
        if known is None:
            known = timing[multiplication] = (
                scheduler.latency_of(operation),
                scheduler.occupancy_of(operation),
            )
        latency, occupancy = known
        for producer in producers:
            finish = finish_cycles[producer]
            if finish > earliest:
                earliest = finish
        cycle = earliest
        while cycle <= earliest + _MAX_PUSH:
            placed, shared_unit = try_claim(operation, cycle, row, col, occupancy)
            if placed:
                break
            cycle += 1
        else:
            raise SchedulingError(
                f"operation {operation.name!r} could not be rearranged onto "
                f"architecture {target.name!r}"
            )
        append(operation, cycle, row, col, latency, occupancy, shared_unit)
        record_finish(cycle + latency)
    return rearranged


def rebind_schedule(schedule: Schedule, target: ArchitectureSpec) -> Schedule:
    """Copy of ``schedule`` bound to the structurally identical ``target``.

    The columns are copied, never shared, in :meth:`Schedule.operations`
    order, so ``schedule.architecture`` reports the caller's spec (figures
    and the simulator read the name from there).
    """
    rebound = Schedule(target, kernel_name=schedule.kernel_name)
    append = rebound.append
    # A placement is (operation, cycle, row, col, ...); sort by (cycle, col, row).
    for placement in sorted(
        zip(*schedule.columns()), key=lambda placement: (placement[1], placement[3], placement[2])
    ):
        append(*placement)
    return rebound


def remap_schedule(dfg: DFG, target: ArchitectureSpec, kernel_name: Optional[str] = None) -> Schedule:
    """Fully re-map ``dfg`` onto ``target`` (free placement, not rearrangement).

    This is the "smarter mapper" alternative to the paper's rearrangement:
    placements are chosen with knowledge of the sharing topology, so fewer
    stalls may be needed.  Used by the ablation benchmarks to quantify how
    pessimistic the rearrangement rules are.
    """
    return LoopPipeliningScheduler(target).schedule(dfg, kernel_name=kernel_name)


@dataclass(frozen=True)
class RearrangementResult:
    """Outcome of rearranging one kernel for one design point."""

    kernel: str
    architecture: str
    base_cycles: int
    stall_free_cycles: int
    cycles: int

    @property
    def stall_cycles(self) -> int:
        """Stalls caused by a shortage of shared resources.

        The stall-free reference applies the same pipelining stretch but
        assumes unlimited shared multipliers, so the difference isolates
        the "stall number of resource lack" reported in paper Tables 4/5.
        """
        return max(0, self.cycles - self.stall_free_cycles)

    @property
    def pipeline_overhead_cycles(self) -> int:
        """Extra cycles caused purely by the multi-cycle pipelined multiplier."""
        return max(0, self.stall_free_cycles - self.base_cycles)


@dataclass
class RearrangedSchedule:
    """Output of the ``rearrange`` stage: the schedule plus its cycle summary."""

    schedule: Schedule
    summary: RearrangementResult


def evaluate_rearrangement(
    base_schedule: Schedule,
    dfg: DFG,
    target: ArchitectureSpec,
) -> RearrangementResult:
    """Rearrange ``base_schedule`` for ``target`` and summarise the cycle counts."""
    if target.is_base:
        length = base_schedule.length
        return RearrangementResult(
            kernel=base_schedule.kernel_name,
            architecture=target.name,
            base_cycles=length,
            stall_free_cycles=length,
            cycles=length,
        )
    actual = rearrange_schedule(base_schedule, dfg, target, unlimited_shared=False)
    stall_free = rearrange_schedule(base_schedule, dfg, target, unlimited_shared=True)
    return RearrangementResult(
        kernel=base_schedule.kernel_name,
        architecture=target.name,
        base_cycles=base_schedule.length,
        stall_free_cycles=stall_free.length,
        cycles=actual.length,
    )
