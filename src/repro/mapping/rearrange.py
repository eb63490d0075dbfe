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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.template import ArchitectureSpec
from repro.errors import MappingError, SchedulingError
from repro.ir.dfg import DFG, OpType
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.placement import ResourceTracker
from repro.mapping.schedule import Schedule, ScheduledOperation

#: Operation types that never occupy a PE slot.
_UNSCHEDULED_OPTYPES = (OpType.CONST, OpType.NOP)

#: Safety bound on how far a single operation may be pushed past its
#: dependence-feasible cycle while searching for free resources.
_MAX_PUSH = 100000


def rearrange_schedule(
    base_schedule: Schedule,
    dfg: DFG,
    target: ArchitectureSpec,
    unlimited_shared: bool = False,
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

    Returns
    -------
    Schedule
        The rearranged schedule on ``target``.
    """
    scheduler = LoopPipeliningScheduler(target)
    tracker = ResourceTracker(target, unlimited_shared=unlimited_shared)
    rearranged = Schedule(target, kernel_name=base_schedule.kernel_name)

    ordered = sorted(
        base_schedule.operations(),
        key=lambda entry: (entry.cycle, entry.operation.iteration, entry.col, entry.row),
    )
    finish_cycle: Dict[str, int] = {}
    # (latency, PE occupancy) on ``target``; both depend only on the type.
    timing: Dict[OpType, Tuple[int, int]] = {}
    for entry in ordered:
        operation = entry.operation
        if operation.optype not in timing:
            timing[operation.optype] = (
                scheduler.latency_of(operation),
                scheduler.occupancy_of(operation),
            )
        latency, occupancy = timing[operation.optype]
        earliest = entry.cycle
        for predecessor in dfg.predecessors(operation.name):
            predecessor_op = dfg.operation(predecessor)
            if predecessor_op.optype in _UNSCHEDULED_OPTYPES:
                continue
            if predecessor not in finish_cycle:
                raise MappingError(
                    f"operation {operation.name!r} depends on {predecessor!r} which is "
                    f"not part of the base schedule"
                )
            earliest = max(earliest, finish_cycle[predecessor])
        cycle = earliest
        placed = False
        while cycle <= earliest + _MAX_PUSH:
            feasible, shared_unit = tracker.placement_feasible(
                operation, cycle, entry.row, entry.col, occupancy
            )
            if feasible:
                tracker.claim(operation, cycle, entry.row, entry.col, occupancy, shared_unit)
                rearranged.add(
                    ScheduledOperation(
                        operation=operation,
                        cycle=cycle,
                        row=entry.row,
                        col=entry.col,
                        latency=latency,
                        occupancy=occupancy,
                        shared_unit=shared_unit,
                    )
                )
                finish_cycle[operation.name] = cycle + latency
                placed = True
                break
            cycle += 1
        if not placed:
            raise SchedulingError(
                f"operation {operation.name!r} could not be rearranged onto "
                f"architecture {target.name!r}"
            )
    return rearranged


def rebind_schedule(schedule: Schedule, target: ArchitectureSpec) -> Schedule:
    """Copy of ``schedule`` bound to the structurally identical ``target``.

    The immutable entries are shared; only the schedule shell is rebuilt so
    ``schedule.architecture`` reports the caller's spec (figures and the
    simulator read the name from there).
    """
    rebound = Schedule(target, kernel_name=schedule.kernel_name)
    for entry in schedule.operations():
        rebound.add(entry)
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
