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
Within a column, rows already holding the operation's predecessors come
first, and a multiplication prefers the rows that have issued the fewest
multiplications in the cycle.

:meth:`LoopPipeliningScheduler.schedule` works out once per call what
every placement reads: each operation's latency, occupancy, resource class
(PE only, read bus, write bus or shared multiplier), column order and rank.
It keeps the ready operations across cycles, each filed under the cycle its
operands arrive and merged into the rank-sorted ready list when that cycle
comes, and hands the finished columns to :meth:`Schedule.from_columns`.

Every claim starts at the cycle being filled, so a PE busy in any later
cycle is busy now: the current cycle's PE mask alone decides whether a PE
is free for any occupancy.  Two shortcuts follow, and neither changes a
placement:

* A probe is made only where it can succeed on its PE and row bus.  Each
  cycle keeps a mask of blocked PEs per resource class: the rows whose
  read or write bus a claim has filled (:meth:`ResourceTracker.bus_free`),
  and for shared multiplications the PEs whose reachable units were all
  found taken.  Claims made later in the cycle only remove capacity, so a
  blocked PE stays blocked, and an operation whose class leaves no PE
  unblocked waits without a probe.
* Once the cycle's PE mask is full, the cycle ends.

Probes still go through :meth:`ResourceTracker.placement_feasible` and
records through :meth:`ResourceTracker.claim`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.array import SharedUnitId
from repro.arch.template import ArchitectureSpec
from repro.errors import SchedulingError
from repro.ir.dfg import DFG, Operation, OpType
from repro.mapping.placement import ResourceTracker, column_preference
from repro.mapping.schedule import Schedule

#: Operation types that never occupy a PE slot (resolved at configuration time).
_UNSCHEDULED_OPTYPES = (OpType.CONST, OpType.NOP)

_LOAD = OpType.LOAD
_STORE = OpType.STORE
_MUL = OpType.MUL

#: Resource classes: what, besides a free PE, an operation needs.  A class
#: indexes the per-cycle blocked masks and :data:`_BUS_OPTYPES`.
_PE_ONLY, _READ_BUS, _WRITE_BUS, _SHARED_UNIT = range(4)

#: The optype whose row bus each class uses, ``None`` for no bus.
_BUS_OPTYPES = (None, _LOAD, _STORE, None)


class LoopPipeliningScheduler:
    """Resource-constrained list scheduler for one architecture design point.

    ``max_cycles`` bounds the last cycle a placement may start in (``None``
    for ``10 * operations + 1000``); a kernel that needs more raises a
    :class:`SchedulingError`.
    """

    def __init__(self, architecture: ArchitectureSpec, max_cycles: Optional[int] = None) -> None:
        if max_cycles is not None and max_cycles < 0:
            raise ValueError(f"max_cycles must be None or >= 0, got {max_cycles}")
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
        architecture = self.architecture
        name = kernel_name or dfg.name
        predecessors, successors = dfg.adjacency()
        schedulable = [
            op for op in dfg.operations() if op.optype not in _UNSCHEDULED_OPTYPES
        ]

        # Latency and occupancy, asked of the model once per multiplication
        # flag: it reads an operation only through whether it multiplies.
        timings: Dict[bool, Tuple[int, int]] = {}
        latency_by_name: Dict[str, int] = {}
        for op in schedulable:
            flag = op.optype is _MUL
            timing = timings.get(flag)
            if timing is None:
                timing = timings[flag] = (self.latency_of(op), self.occupancy_of(op))
            latency_by_name[op.name] = timing[0]

        # Rank: iteration, then the longest downstream chain (in cycles)
        # first, then name.
        downstream: Dict[str, int] = {}
        for op_name in reversed(dfg.topological_order()):
            downstream[op_name] = latency_by_name.get(op_name, 0) + max(
                map(downstream.__getitem__, successors[op_name]), default=0
            )
        ranked = sorted(
            schedulable, key=lambda op: (op.iteration, -downstream[op.name], op.name)
        )

        # Facts of every operation, by rank.
        count = len(ranked)
        rank_of = {op.name: rank for rank, op in enumerate(ranked)}
        spec = architecture.array
        rows, cols = spec.rows, spec.cols
        column_orders = [column_preference(preferred, cols) for preferred in range(cols)]
        shares = architecture.uses_sharing
        latencies: List[int] = []
        occupancies: List[int] = []
        classes: List[int] = []
        multiplies: List[bool] = []
        columns: List[List[int]] = []
        pending = [0] * count
        for rank, op in enumerate(ranked):
            optype = op.optype
            latency, occupancy = timings[optype is _MUL]
            latencies.append(latency)
            occupancies.append(occupancy)
            if optype is _LOAD:
                classes.append(_READ_BUS)
            elif optype is _STORE:
                classes.append(_WRITE_BUS)
            else:
                classes.append(_SHARED_UNIT if shares and optype is _MUL else _PE_ONLY)
            multiplies.append(optype is _MUL)
            columns.append(column_orders[op.iteration % cols])
            for producer in predecessors[op.name]:
                if producer in rank_of:
                    pending[rank] += 1
        earliest = [0] * count
        row_of = [0] * count

        tracker = ResourceTracker(architecture)
        probe = tracker.placement_feasible
        claim = tracker.claim
        bus_free = tracker.bus_free
        full = (1 << (rows * cols)) - 1
        all_rows = list(range(rows))
        row_masks = [((1 << cols) - 1) << (row * cols) for row in all_rows]
        # Bit of PE (row, col) at ``pe_bits[col][row]``, and each column's bits.
        pe_bits = [[1 << (row * cols + col) for row in all_rows] for col in range(cols)]
        column_masks = [sum(bits) for bits in pe_bits]

        placed: List[int] = []
        placed_cycles: List[int] = []
        placed_rows: List[int] = []
        placed_cols: List[int] = []
        shared_units: List[Optional[SharedUnitId]] = []
        # Ranks of the ready operations not placed yet, sorted, and of those
        # whose operands arrive later, by arrival cycle.
        ready = [rank for rank in range(count) if not pending[rank]]
        arriving: Dict[int, List[int]] = {}

        limit = self.max_cycles if self.max_cycles is not None else 10 * count + 1000
        remaining = count
        cycle = 0
        while remaining:
            if cycle > limit:
                raise SchedulingError(
                    f"kernel {name!r} did not finish scheduling within {limit} cycles "
                    f"on architecture {architecture.name!r}"
                )
            arrivals = arriving.pop(cycle, None)
            if arrivals is not None:
                ready += arrivals
                ready.sort()
            busy = tracker.busy_mask(cycle, 1)
            if ready and busy != full:
                waiting: List[int] = []
                # PEs each class cannot take this cycle besides the busy ones.
                blocked = [0, 0, 0, 0]
                # Multiplications issued per row this cycle, once there is one.
                row_mults: Optional[List[int]] = None
                for position, rank in enumerate(ready):
                    resource = classes[rank]
                    taken = busy | blocked[resource]
                    if taken == full:
                        waiting.append(rank)
                        continue
                    operation = ranked[rank]
                    op_name = operation.name
                    preferred: List[int] = []
                    for producer in predecessors[op_name]:
                        producer_rank = rank_of.get(producer)
                        if producer_rank is not None and row_of[producer_rank] not in preferred:
                            preferred.append(row_of[producer_rank])
                    row_order = (
                        preferred + [row for row in all_rows if row not in preferred]
                        if preferred
                        else all_rows
                    )
                    if row_mults is not None and multiplies[rank]:
                        row_order = sorted(row_order, key=row_mults.__getitem__)
                    occupancy = occupancies[rank]
                    for col in columns[rank]:
                        column_mask = column_masks[col]
                        if (taken & column_mask) == column_mask:
                            continue
                        bits = pe_bits[col]
                        for row in row_order:
                            if not taken & bits[row]:
                                feasible, shared_unit = probe(
                                    operation, cycle, row, col, occupancy
                                )
                                if feasible:
                                    break
                                blocked[resource] |= bits[row]
                                taken |= bits[row]
                        else:
                            continue
                        break
                    else:
                        waiting.append(rank)
                        continue
                    claim(operation, cycle, row, col, occupancy, shared_unit)
                    busy |= bits[row]
                    bus_optype = _BUS_OPTYPES[resource]
                    if bus_optype is not None and not bus_free(cycle, row, bus_optype):
                        blocked[resource] |= row_masks[row]
                    if multiplies[rank]:
                        if row_mults is None:
                            row_mults = [0] * rows
                        row_mults[row] += 1
                    placed.append(rank)
                    placed_cycles.append(cycle)
                    placed_rows.append(row)
                    placed_cols.append(col)
                    shared_units.append(shared_unit)
                    row_of[rank] = row
                    remaining -= 1
                    finish = cycle + latencies[rank]
                    for successor in successors[op_name]:
                        successor_rank = rank_of.get(successor)
                        if successor_rank is None:
                            continue
                        if finish > earliest[successor_rank]:
                            earliest[successor_rank] = finish
                        pending[successor_rank] -= 1
                        if not pending[successor_rank]:
                            arriving.setdefault(earliest[successor_rank], []).append(
                                successor_rank
                            )
                    if busy == full:
                        waiting += ready[position + 1 :]
                        break
                ready = waiting
            cycle += 1
        return Schedule.from_columns(
            architecture,
            name,
            list(map(ranked.__getitem__, placed)),
            placed_cycles,
            placed_rows,
            placed_cols,
            list(map(latencies.__getitem__, placed)),
            list(map(occupancies.__getitem__, placed)),
            shared_units,
        )
