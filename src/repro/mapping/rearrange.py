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
base schedule and the DFG alone is a re-timing plan (:func:`retiming_plan`):
columns in visit order of the operations, their base cycles, rows, columns
and multiplication flags, and the visit indices of the earlier visits
producing their operands.  A pass asks the target's latency model about a
multiplication and about any other operation once, fills the latency and
occupancy columns from the flags, and then only finds each visit's cycle:
an operand is ready at its producer's cycle plus latency, and the loop
appends just the cycle and the shared unit.  Every probe is a
:meth:`ResourceTracker.try_claim`, which checks a cycle with the rules the
base scheduler applies and, when it fits, records the claims in the same
pass.  The finished columns become the schedule whole
(:meth:`Schedule.from_columns`); no entry object is built, and no column is
shared with the plan or another schedule.

RS stalls are counted against a stall-free pass with unlimited shared
multipliers (``unlimited_shared=True``).  That pass reads the target only
through its array, its multiplier latency and whether it shares, so the
``rearrange`` stage (:mod:`repro.flowgraph.mapping`) runs it once per
such constraint set, and builds one plan per base schedule for all its
passes; :func:`evaluate_rearrangement` is the uncached two-pass reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.arch.array import SharedUnitId
from repro.arch.template import ArchitectureSpec
from repro.errors import MappingError, SchedulingError
from repro.ir.dfg import DFG, Operation, OpType
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.placement import ResourceTracker
from repro.mapping.schedule import Schedule

#: Operation types that never occupy a PE slot.
_UNSCHEDULED_OPTYPES = (OpType.CONST, OpType.NOP)

#: Safety bound on how far a single operation may be pushed past its
#: dependence-feasible cycle while searching for free resources.
_MAX_PUSH = 100000


class RetimingPlan(NamedTuple):
    """The part of a rearrangement that depends only on the base schedule.

    One column per field, in (base cycle, iteration, col, row) visit order:
    the operation, its base cycle, row and column, whether it multiplies,
    and the visit indices of the earlier visits producing its operands.
    ``samples`` holds the first visited operation of each multiplication
    flag, which a pass asks the target's latency model about.
    """

    operations: Tuple[Operation, ...]
    cycles: Tuple[int, ...]
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    multiplications: Tuple[bool, ...]
    producers: Tuple[Tuple[int, ...], ...]
    samples: Dict[bool, Operation]


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
    visited = [operations[position] for position in order]
    # Visit index of each placed operation that produces a value.
    visit_of: Dict[str, int] = {}
    producers: List[Tuple[int, ...]] = []
    multiplications: List[bool] = []
    samples: Dict[bool, Operation] = {}
    for visit, operation in enumerate(visited):
        name = operation.name
        operands: List[int] = []
        for producer in dfg.predecessors(name):
            producer_visit = visit_of.get(producer)
            if producer_visit is None:
                if dfg.operation(producer).optype in _UNSCHEDULED_OPTYPES:
                    continue
                raise MappingError(
                    f"operation {name!r} depends on {producer!r} which is "
                    f"not part of the base schedule"
                )
            operands.append(producer_visit)
        producers.append(tuple(operands))
        optype = operation.optype
        if optype not in _UNSCHEDULED_OPTYPES:
            visit_of[name] = visit
        multiplication = optype is OpType.MUL
        multiplications.append(multiplication)
        samples.setdefault(multiplication, operation)
    return RetimingPlan(
        operations=tuple(visited),
        cycles=tuple(cycles[position] for position in order),
        rows=tuple(rows[position] for position in order),
        cols=tuple(cols[position] for position in order),
        multiplications=tuple(multiplications),
        producers=tuple(producers),
        samples=samples,
    )


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
        The rearranged schedule on ``target``, its entries in visit order.
    """
    if plan is None:
        plan = retiming_plan(base_schedule, dfg)
    scheduler = LoopPipeliningScheduler(target)
    try_claim = ResourceTracker(target, unlimited_shared=unlimited_shared).try_claim
    operations = plan.operations
    # Latency and PE occupancy on ``target``: the scheduler's model reads an
    # operation only through whether it is a multiplication.
    latency_of = {flag: scheduler.latency_of(op) for flag, op in plan.samples.items()}
    occupancy_of = {flag: scheduler.occupancy_of(op) for flag, op in plan.samples.items()}
    latencies = list(map(latency_of.__getitem__, plan.multiplications))
    occupancies = list(map(occupancy_of.__getitem__, plan.multiplications))
    # Issue cycle and shared unit of every visit so far, by visit index.
    cycles: List[int] = []
    shared_units: List[Optional[SharedUnitId]] = []
    record_cycle = cycles.append
    record_unit = shared_units.append
    for operation, earliest, row, col, producers, occupancy in zip(
        operations, plan.cycles, plan.rows, plan.cols, plan.producers, occupancies
    ):
        for producer in producers:
            finish = cycles[producer] + latencies[producer]
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
        record_cycle(cycle)
        record_unit(shared_unit)
    return Schedule.from_columns(
        target,
        base_schedule.kernel_name,
        list(operations),
        cycles,
        list(plan.rows),
        list(plan.cols),
        latencies,
        occupancies,
        shared_units,
    )


def rebind_schedule(schedule: Schedule, target: ArchitectureSpec) -> Schedule:
    """Copy of ``schedule`` bound to the structurally identical ``target``.

    The columns are copied, never shared, in :meth:`Schedule.operations`
    order, so ``schedule.architecture`` reports the caller's spec (figures
    and the simulator read the name from there).
    """
    columns = schedule.columns()
    cycles, rows, cols = columns.cycles, columns.rows, columns.cols
    order = sorted(
        range(len(cycles)), key=lambda position: (cycles[position], cols[position], rows[position])
    )
    return Schedule.from_columns(
        target,
        schedule.kernel_name,
        *([column[position] for position in order] for column in columns),
    )


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
