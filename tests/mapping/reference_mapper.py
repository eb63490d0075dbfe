"""Frozen reference copy of the list scheduler, its resource tracker and
the RS/RP rearrangement.

The classes and functions below are the dict-based implementation the
production mapper replaced with bitmask PE occupancy.  They are kept
verbatim, and never optimised, so ``test_reference_mapper.py`` can pin the
production schedules to them entry by entry: artifact keys hash DFG content
and architecture structure, not code, so a scheduler that placed even one
operation differently would let warm stores serve stale schedules.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.arch.array import SharedUnitId
from repro.arch.template import ArchitectureSpec
from repro.errors import MappingError, PlacementError, SchedulingError
from repro.ir.dfg import DFG, Operation, OpType
from repro.mapping.schedule import Schedule, ScheduledOperation


class ResourceTracker:
    """Tracks PE, bus and shared-multiplier usage per cycle.

    Parameters
    ----------
    architecture:
        The design point whose constraints are enforced.
    unlimited_shared:
        When True the shared-multiplier issue constraint is lifted (used to
        compute the stall-free reference length for stall accounting).
    """

    def __init__(self, architecture: ArchitectureSpec, unlimited_shared: bool = False) -> None:
        self.architecture = architecture
        self.unlimited_shared = unlimited_shared
        self._pe_busy: Dict[Tuple[int, int, int], str] = {}
        self._loads: Dict[Tuple[int, int], int] = defaultdict(int)
        self._stores: Dict[Tuple[int, int], int] = defaultdict(int)
        self._unit_issues: Dict[Tuple[SharedUnitId, int], str] = {}
        self._row_mults: Dict[Tuple[int, int], int] = defaultdict(int)
        # Counter used to mint pseudo-unit ordinals in unlimited mode.
        self._unlimited_counter: Dict[Tuple[int, int], int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Processing elements
    # ------------------------------------------------------------------
    def pe_free(self, cycle: int, row: int, col: int, duration: int) -> bool:
        """True when PE (row, col) is idle for ``duration`` cycles from ``cycle``."""
        return all(
            (offset_cycle, row, col) not in self._pe_busy
            for offset_cycle in range(cycle, cycle + duration)
        )

    def claim_pe(self, cycle: int, row: int, col: int, duration: int, name: str) -> None:
        """Mark PE (row, col) busy for ``duration`` cycles starting at ``cycle``."""
        for offset_cycle in range(cycle, cycle + duration):
            key = (offset_cycle, row, col)
            if key in self._pe_busy:
                raise PlacementError(
                    f"PE ({row},{col}) already busy at cycle {offset_cycle} "
                    f"with {self._pe_busy[key]!r}"
                )
            self._pe_busy[key] = name

    # ------------------------------------------------------------------
    # Row data buses
    # ------------------------------------------------------------------
    def bus_free(self, cycle: int, row: int, optype: OpType) -> bool:
        """True when row ``row`` still has a bus slot for ``optype`` at ``cycle``."""
        buses = self.architecture.array.row_buses
        if optype is OpType.LOAD:
            return self._loads[(cycle, row)] < buses.read_buses
        if optype is OpType.STORE:
            return self._stores[(cycle, row)] < buses.write_buses
        return True

    def claim_bus(self, cycle: int, row: int, optype: OpType) -> None:
        """Consume one bus slot for ``optype`` on row ``row`` at ``cycle``."""
        if optype is OpType.LOAD:
            self._loads[(cycle, row)] += 1
        elif optype is OpType.STORE:
            self._stores[(cycle, row)] += 1

    # ------------------------------------------------------------------
    # Shared multipliers
    # ------------------------------------------------------------------
    def reachable_units(self, row: int, col: int) -> List[SharedUnitId]:
        """Shared-unit identifiers reachable from PE (row, col)."""
        sharing = self.architecture.sharing
        units: List[SharedUnitId] = [
            ("row", row, ordinal) for ordinal in range(sharing.rows_shared)
        ]
        units.extend(("col", col, ordinal) for ordinal in range(sharing.cols_shared))
        return units

    def available_shared_unit(self, cycle: int, row: int, col: int) -> Optional[SharedUnitId]:
        """A reachable shared unit with a free issue slot at ``cycle``, if any.

        Row units are preferred over column units, and lower ordinals over
        higher ones, so the assignment is deterministic.
        """
        if self.unlimited_shared:
            ordinal = self._unlimited_counter[(cycle, row)]
            self._unlimited_counter[(cycle, row)] += 1
            return ("row", row, ordinal)
        for unit in self.reachable_units(row, col):
            if (unit, cycle) not in self._unit_issues:
                return unit
        return None

    def claim_shared_unit(self, unit: SharedUnitId, cycle: int, name: str) -> None:
        """Record that ``unit`` accepts the multiplication ``name`` at ``cycle``."""
        if self.unlimited_shared:
            return
        key = (unit, cycle)
        if key in self._unit_issues:
            raise PlacementError(
                f"shared unit {unit} already issues {self._unit_issues[key]!r} at cycle {cycle}"
            )
        self._unit_issues[key] = name

    # ------------------------------------------------------------------
    # Combined feasibility check
    # ------------------------------------------------------------------
    def placement_feasible(
        self,
        operation: Operation,
        cycle: int,
        row: int,
        col: int,
        duration: int,
    ) -> Tuple[bool, Optional[SharedUnitId]]:
        """Check whether ``operation`` can issue at (cycle, row, col).

        Returns ``(feasible, shared_unit)`` where ``shared_unit`` is the
        unit to bind a multiplication to (``None`` for non-multiplications
        or architectures without sharing).
        """
        if not self.pe_free(cycle, row, col, duration):
            return False, None
        if operation.is_memory and not self.bus_free(cycle, row, operation.optype):
            return False, None
        if operation.is_multiplication and self.architecture.uses_sharing:
            unit = self.available_shared_unit(cycle, row, col)
            if unit is None:
                return False, None
            return True, unit
        return True, None

    def claim(
        self,
        operation: Operation,
        cycle: int,
        row: int,
        col: int,
        duration: int,
        shared_unit: Optional[SharedUnitId],
    ) -> None:
        """Record all resource claims of a placed operation."""
        self.claim_pe(cycle, row, col, duration, operation.name)
        if operation.is_memory:
            self.claim_bus(cycle, row, operation.optype)
        if operation.is_multiplication:
            self._row_mults[(cycle, row)] += 1
            if shared_unit is not None:
                self.claim_shared_unit(shared_unit, cycle, operation.name)

    def multiplications_in_row(self, cycle: int, row: int) -> int:
        """Multiplications already issued by the PEs of ``row`` at ``cycle``.

        The base mapper uses this to spread concurrent multiplications over
        the rows of the array, which keeps the per-row demand on row-shared
        multipliers balanced (the situation the RS designs are built for).
        """
        return self._row_mults[(cycle, row)]


def column_preference(iteration: int, cols: int) -> List[int]:
    """Column visit order for an operation of the given loop iteration.

    The preferred column is ``iteration mod cols`` (this produces the
    staggered column pattern of paper Figure 2); the remaining columns are
    visited by increasing ring distance so spill placements stay close.
    """
    if cols <= 0:
        raise PlacementError("column count must be positive")
    preferred = iteration % cols
    order = [preferred]
    for distance in range(1, cols):
        order.append((preferred + distance) % cols)
    return order


#: Operation types that never occupy a PE slot (resolved at configuration time).
_UNSCHEDULED_OPTYPES = (OpType.CONST, OpType.NOP)


class LoopPipeliningScheduler:
    """Resource-constrained list scheduler for one architecture design point."""

    def __init__(self, architecture: ArchitectureSpec, max_cycles: Optional[int] = None) -> None:
        self.architecture = architecture
        self.max_cycles = max_cycles

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def latency_of(self, operation: Operation) -> int:
        """Cycles from issue until the operation's result is available."""
        if operation.is_multiplication:
            return self.architecture.multiplier_latency
        return 1

    def occupancy_of(self, operation: Operation) -> int:
        """Cycles the issuing PE stays busy with ``operation``.

        A multiplication sent to a *shared* multiplier only occupies its PE
        for the issue cycle (the operands are latched by the bus switch and
        the remaining stages run in the shared unit); every other operation
        holds its PE until the result is available.
        """
        if operation.is_multiplication and self.architecture.uses_sharing:
            return 1
        return self.latency_of(operation)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, dfg: DFG, kernel_name: Optional[str] = None) -> Schedule:
        """Map ``dfg`` onto the architecture and return the schedule."""
        name = kernel_name or dfg.name
        result = Schedule(self.architecture, kernel_name=name)
        schedulable = [
            op for op in dfg.operations() if op.optype not in _UNSCHEDULED_OPTYPES
        ]
        if not schedulable:
            return result

        priorities = self._downstream_priorities(dfg)
        pending_preds: Dict[str, int] = {}
        earliest: Dict[str, int] = {}
        for op in schedulable:
            real_preds = [
                pred
                for pred in dfg.predecessors(op.name)
                if dfg.operation(pred).optype not in _UNSCHEDULED_OPTYPES
            ]
            pending_preds[op.name] = len(real_preds)
            earliest[op.name] = 0

        ready: Set[str] = {
            op.name for op in schedulable if pending_preds[op.name] == 0
        }
        unscheduled = {op.name for op in schedulable}
        tracker = ResourceTracker(self.architecture)
        placements: Dict[str, Tuple[int, int]] = {}

        limit = self.max_cycles or (10 * len(schedulable) + 1000)
        cycle = 0
        while unscheduled:
            if cycle > limit:
                raise SchedulingError(
                    f"kernel {name!r} did not finish scheduling within {limit} cycles "
                    f"on architecture {self.architecture.name!r}"
                )
            candidates = sorted(
                (op_name for op_name in ready if earliest[op_name] <= cycle),
                key=lambda op_name: (
                    dfg.operation(op_name).iteration,
                    -priorities[op_name],
                    op_name,
                ),
            )
            for op_name in candidates:
                operation = dfg.operation(op_name)
                latency = self.latency_of(operation)
                occupancy = self.occupancy_of(operation)
                placement = self._find_placement(
                    operation, cycle, occupancy, tracker, dfg, placements
                )
                if placement is None:
                    continue
                row, col, shared_unit = placement
                tracker.claim(operation, cycle, row, col, occupancy, shared_unit)
                result.add(
                    ScheduledOperation(
                        operation=operation,
                        cycle=cycle,
                        row=row,
                        col=col,
                        latency=latency,
                        occupancy=occupancy,
                        shared_unit=shared_unit,
                    )
                )
                placements[op_name] = (row, col)
                ready.discard(op_name)
                unscheduled.discard(op_name)
                finish = cycle + latency
                for successor in dfg.successors(op_name):
                    successor_op = dfg.operation(successor)
                    if successor_op.optype in _UNSCHEDULED_OPTYPES:
                        continue
                    earliest[successor] = max(earliest[successor], finish)
                    pending_preds[successor] -= 1
                    if pending_preds[successor] == 0:
                        ready.add(successor)
            cycle += 1
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _downstream_priorities(self, dfg: DFG) -> Dict[str, int]:
        """Longest downstream dependence chain of every operation (in cycles)."""
        priorities: Dict[str, int] = {}
        for op_name in reversed(dfg.topological_order()):
            operation = dfg.operation(op_name)
            latency = self.latency_of(operation) if operation.optype not in _UNSCHEDULED_OPTYPES else 0
            downstream = 0
            for successor in dfg.successors(op_name):
                downstream = max(downstream, priorities[successor])
            priorities[op_name] = latency + downstream
        return priorities

    def _find_placement(
        self,
        operation: Operation,
        cycle: int,
        duration: int,
        tracker: ResourceTracker,
        dfg: DFG,
        placements: Dict[str, Tuple[int, int]],
    ) -> Optional[Tuple[int, int, Optional[Tuple[str, int, int]]]]:
        """Pick a PE (and shared unit) for ``operation`` at ``cycle``.

        Columns are visited in preference order (the iteration's column
        first); within a column, rows already holding the operation's
        predecessors are preferred so operands stay local.
        """
        spec = self.architecture.array
        preferred_rows = [
            placements[pred][0]
            for pred in dfg.predecessors(operation.name)
            if pred in placements
        ]
        row_order = list(dict.fromkeys(preferred_rows)) + [
            row for row in range(spec.rows) if row not in preferred_rows
        ]
        if operation.is_multiplication:
            # Spread concurrent multiplications over the rows so the per-row
            # demand on row-shared multipliers stays balanced; ties fall back
            # to the operand-locality order computed above.
            rank = {row: index for index, row in enumerate(row_order)}
            row_order = sorted(
                row_order,
                key=lambda row: (tracker.multiplications_in_row(cycle, row), rank[row]),
            )
        for col in column_preference(operation.iteration, spec.cols):
            for row in row_order:
                feasible, shared_unit = tracker.placement_feasible(
                    operation, cycle, row, col, duration
                )
                if feasible:
                    return row, col, shared_unit
        return None


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
    for entry in ordered:
        operation = entry.operation
        latency = scheduler.latency_of(operation)
        occupancy = scheduler.occupancy_of(operation)
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
