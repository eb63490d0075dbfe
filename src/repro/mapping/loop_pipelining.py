"""Loop-pipelining mapper (the base scheduling step of the RSP flow).

The paper assumes loop-pipelining execution in the style of Lee, Choi and
Dutt's CGRA mapping work [7][8]: the iterations of a kernel loop are
distributed over the columns of the array and their operations execute in a
software-pipelined fashion, so heterogeneous operations of different
iterations run simultaneously (the property that makes resource sharing and
pipelining attractive in the first place).

This module implements that mapping as a resource-constrained list
scheduler:

* every operation occupies one PE for its full latency,
* every row sustains at most ``read_buses`` loads and ``write_buses``
  stores per cycle (the row data buses of paper Figure 1),
* on sharing architectures every multiplication must acquire an issue slot
  of a reachable shared multiplier (one new issue per multiplier per
  cycle),
* multiplications take :attr:`ArchitectureSpec.multiplier_latency` cycles
  (1 when combinational, the pipeline depth when pipelined),
* operations prefer the column ``iteration mod columns`` (which yields the
  staggered column pattern of paper Figure 2) and may spill to neighbouring
  columns when their preferred column is full.

Ready operations compete in (iteration, criticality) order, matching the
paper's rule that shared resources are granted in loop-iteration order.

Two shortcuts keep the scheduler from re-proving that the array is full;
neither changes a single placement:

* :meth:`LoopPipeliningScheduler._find_placement` ORs the tracker's
  per-cycle PE masks over the operation's occupancy once, skips busy PEs
  with a bit test and probes :meth:`ResourceTracker.placement_feasible`
  only on PE-free candidates.
* Within one cycle, an operation's feasibility at a PE depends on the
  operation only through its *exhausted key* ``(occupancy, class)``, where
  the class is LOAD, STORE, MUL on a sharing architecture, or other.  When
  no PE takes an operation, no later candidate with the same key is
  probed in that cycle: the search visits every column and row, and the
  claims made later in the cycle only remove capacity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.arch.template import ArchitectureSpec
from repro.errors import SchedulingError
from repro.ir.dfg import DFG, Operation, OpType
from repro.mapping.placement import ResourceTracker, column_preference
from repro.mapping.schedule import Schedule

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
        operations = {op.name: op for op in schedulable}
        rank = {op.name: (op.iteration, -priorities[op.name], op.name) for op in schedulable}
        exhausted_keys = {
            op.name: (self.occupancy_of(op), self._resource_class(op)) for op in schedulable
        }
        tracker = ResourceTracker(self.architecture)
        placements: Dict[str, Tuple[int, int]] = {}
        cols = self.architecture.array.cols
        column_orders = [column_preference(preferred, cols) for preferred in range(cols)]

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
                key=rank.__getitem__,
            )
            exhausted: Set[Tuple[int, Optional[OpType]]] = set()
            for op_name in candidates:
                key = exhausted_keys[op_name]
                if key in exhausted:
                    continue
                operation = operations[op_name]
                occupancy = key[0]
                placement = self._find_placement(
                    operation,
                    cycle,
                    occupancy,
                    tracker,
                    dfg,
                    placements,
                    column_orders[operation.iteration % cols],
                )
                if placement is None:
                    exhausted.add(key)
                    continue
                row, col, shared_unit = placement
                latency = self.latency_of(operation)
                tracker.claim(operation, cycle, row, col, occupancy, shared_unit)
                result.append(operation, cycle, row, col, latency, occupancy, shared_unit)
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

    def _resource_class(self, operation: Operation) -> Optional[OpType]:
        """What, besides its occupancy, decides which PEs can take ``operation``.

        Loads and stores also need a row bus slot and, on sharing
        architectures, multiplications a shared-unit issue slot; every
        other operation needs only a free PE (class ``None``).
        """
        if operation.is_memory or (
            operation.is_multiplication and self.architecture.uses_sharing
        ):
            return operation.optype
        return None

    def _find_placement(
        self,
        operation: Operation,
        cycle: int,
        duration: int,
        tracker: ResourceTracker,
        dfg: DFG,
        placements: Dict[str, Tuple[int, int]],
        columns: List[int],
    ) -> Optional[Tuple[int, int, Optional[Tuple[str, int, int]]]]:
        """Pick a PE (and shared unit) for ``operation`` at ``cycle``.

        Columns are visited in preference order (``columns``, the
        iteration's column first); within a column, rows already holding
        the operation's predecessors are preferred so operands stay local.
        A PE whose bit (``row * cols + col``) is set in the tracker's busy
        mask over ``duration`` cycles is skipped unprobed.
        """
        busy = tracker.busy_mask(cycle, duration)
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
        for col in columns:
            for row in row_order:
                if busy >> (row * spec.cols + col) & 1:
                    continue
                feasible, shared_unit = tracker.placement_feasible(
                    operation, cycle, row, col, duration
                )
                if feasible:
                    return row, col, shared_unit
        return None
