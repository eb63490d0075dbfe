"""Resource tracking used by the scheduler and the RSP rearrangement.

The tracker answers two questions for every candidate (operation, cycle,
PE) triple:

* is the PE free for the operation's whole latency, does the row still have
  a free read/write bus slot, and — for multiplications on sharing
  architectures — is there a reachable shared multiplier with a free issue
  slot in that cycle?
* once the answer is yes, record the claims so later decisions see them.

PE occupancy is one integer bitmask per cycle: bit ``row * cols + col`` of
a cycle's mask is set while PE (row, col) is busy in that cycle.  A caller
that has to scan many PEs ORs the masks over an operation's occupancy once
(:meth:`ResourceTracker.busy_mask`) and skips busy PEs with a bit test, so
only PE-free candidates reach :meth:`ResourceTracker.placement_feasible`.
The shared units each PE reaches depend only on the array's shape and the
sharing topology, so trackers of one such topology share one table
(:func:`reachable_units`).

A probe's PE, bus and shared-unit rules are written once, in
``ResourceTracker._fit``, and a placement's records once, in
``ResourceTracker._record``.  :meth:`ResourceTracker.placement_feasible`
answers with the rules; :meth:`ResourceTracker.try_claim` applies them and,
when the placement fits, records it in the same pass, which is how the
rearrangement probes (most of its probes succeed).  Each of the two is one
Python frame: the re-timing loop pays for three calls per placed
operation, so neither calls a helper on the path that places.

:meth:`ResourceTracker.claim` records a placement the caller already
chose, with the shared unit it chose.  It checks every resource it would
take — PE, row bus and shared unit — before it records any, so a
:class:`PlacementError` names what blocks the placement and leaves the
tracker exactly as it was.  A failed :meth:`ResourceTracker.try_claim`
records nothing.

The same tracker is used by the base mapper (:mod:`repro.mapping.loop_pipelining`)
and by the context rearrangement (:mod:`repro.mapping.rearrange`), which is
what keeps the two paths consistent.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

from repro.arch.array import SharedUnitId
from repro.arch.template import ArchitectureSpec
from repro.errors import PlacementError
from repro.ir.dfg import Operation, OpType

_LOAD = OpType.LOAD
_STORE = OpType.STORE
_MUL = OpType.MUL


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
        array = architecture.array
        sharing = architecture.sharing
        self._rows = array.rows
        self._cols = array.cols
        self._read_buses = array.row_buses.read_buses
        self._write_buses = array.row_buses.write_buses
        self._uses_sharing = architecture.uses_sharing
        self._reachable = reachable_units(
            array.rows, array.cols, sharing.rows_shared, sharing.cols_shared
        )
        # Busy-PE bitmask per cycle.
        self._busy: Dict[int, int] = {}
        # (PE bit, first cycle, cycles, operation name) of every placement,
        # in claim order; read only to name the holder of a busy PE.
        self._claims: List[Tuple[int, int, int, str]] = []
        # Loads and stores issued per (cycle, row).
        self._loads: Dict[Tuple[int, int], int] = {}
        self._stores: Dict[Tuple[int, int], int] = {}
        self._unit_issues: Dict[Tuple[SharedUnitId, int], str] = {}
        # Counter used to mint pseudo-unit ordinals in unlimited mode.
        self._unlimited_counter: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Processing elements
    # ------------------------------------------------------------------
    def _index(self, row: int, col: int) -> int:
        """Bit index of PE (row, col); positions outside the array are rejected."""
        if 0 <= row < self._rows and 0 <= col < self._cols:
            return row * self._cols + col
        raise PlacementError(f"PE ({row},{col}) is outside the {self._rows}x{self._cols} array")

    def busy_mask(self, cycle: int, duration: int) -> int:
        """PEs busy in any of the ``duration`` cycles from ``cycle``, as a bitmask."""
        busy = self._busy
        mask = 0
        for offset_cycle in range(cycle, cycle + duration):
            mask |= busy.get(offset_cycle, 0)
        return mask

    # ------------------------------------------------------------------
    # Row data buses
    # ------------------------------------------------------------------
    def bus_free(self, cycle: int, row: int, optype: OpType) -> bool:
        """True when row ``row`` still has a bus slot for ``optype`` at ``cycle``."""
        if optype is _LOAD:
            return self._loads.get((cycle, row), 0) < self._read_buses
        if optype is _STORE:
            return self._stores.get((cycle, row), 0) < self._write_buses
        return True

    # ------------------------------------------------------------------
    # Combined feasibility check
    # ------------------------------------------------------------------
    def _fit(
        self, optype: OpType, cycle: int, row: int, col: int, duration: int
    ) -> Optional[Tuple[int, Optional[SharedUnitId]]]:
        """``(PE bit, shared unit)`` when the operation fits, else ``None``.

        The one statement of the placement rules: the PE is idle for
        ``duration`` cycles, a load or store finds a free row bus slot, and
        a multiplication on a sharing architecture finds a reachable shared
        unit with a free issue slot (row units before column units, lower
        ordinals first).  In unlimited mode a multiplication always fits,
        on a freshly minted pseudo-unit of its row.
        """
        if not (0 <= row < self._rows and 0 <= col < self._cols):
            self._index(row, col)  # raises
        index = row * self._cols + col
        bit = 1 << index
        busy = self._busy
        if duration == 1:
            if busy.get(cycle, 0) & bit:
                return None
        else:
            for offset_cycle in range(cycle, cycle + duration):
                if busy.get(offset_cycle, 0) & bit:
                    return None
        if optype is _LOAD:
            if self._loads.get((cycle, row), 0) >= self._read_buses:
                return None
        elif optype is _STORE:
            if self._stores.get((cycle, row), 0) >= self._write_buses:
                return None
        elif optype is _MUL and self._uses_sharing:
            if self.unlimited_shared:
                key = (cycle, row)
                minted = self._unlimited_counter
                ordinal = minted.get(key, 0)
                minted[key] = ordinal + 1
                return bit, ("row", row, ordinal)
            issues = self._unit_issues
            for unit in self._reachable[index]:
                if (unit, cycle) not in issues:
                    return bit, unit
            return None
        return bit, None

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
        fit = self._fit(operation.optype, cycle, row, col, duration)
        if fit is None:
            return False, None
        return True, fit[1]

    def try_claim(
        self,
        operation: Operation,
        cycle: int,
        row: int,
        col: int,
        duration: int,
    ) -> Tuple[bool, Optional[SharedUnitId]]:
        """:meth:`placement_feasible` and, when it fits, :meth:`claim` in one pass.

        Returns what :meth:`placement_feasible` returns.  On success the
        tracker holds exactly the records :meth:`claim` makes with the
        returned unit; on failure it records nothing.
        """
        fit = self._fit(operation.optype, cycle, row, col, duration)
        if fit is None:
            return False, None
        bit, shared_unit = fit
        self._record(operation, cycle, row, duration, bit, shared_unit)
        return True, shared_unit

    def claim(
        self,
        operation: Operation,
        cycle: int,
        row: int,
        col: int,
        duration: int,
        shared_unit: Optional[SharedUnitId],
    ) -> None:
        """Record all resource claims of a placed operation.

        Every resource is checked before any is recorded: the PE over
        ``duration`` cycles, the row's read or write bus for a load or
        store, and ``shared_unit``'s issue slot for a multiplication.
        """
        bit = 1 << self._index(row, col)
        busy = self._busy
        for offset_cycle in range(cycle, cycle + duration):
            if busy.get(offset_cycle, 0) & bit:
                holder = next(
                    name
                    for held, first, cycles, name in self._claims
                    if held == bit and first <= offset_cycle < first + cycles
                )
                raise PlacementError(
                    f"PE ({row},{col}) already busy at cycle {offset_cycle} with {holder!r}"
                )
        optype = operation.optype
        if optype is _LOAD or optype is _STORE:
            if not self.bus_free(cycle, row, optype):
                kind = "read" if optype is _LOAD else "write"
                raise PlacementError(f"row {row} has no free {kind} bus at cycle {cycle}")
        elif optype is _MUL and shared_unit is not None and not self.unlimited_shared:
            holder = self._unit_issues.get((shared_unit, cycle))
            if holder is not None:
                raise PlacementError(
                    f"shared unit {shared_unit} already issues {holder!r} at cycle {cycle}"
                )
        self._record(operation, cycle, row, duration, bit, shared_unit)

    def _record(
        self,
        operation: Operation,
        cycle: int,
        row: int,
        duration: int,
        bit: int,
        shared_unit: Optional[SharedUnitId],
    ) -> None:
        """Record a checked placement: PE, row bus, unit issue."""
        name = operation.name
        busy = self._busy
        if duration == 1:
            busy[cycle] = busy.get(cycle, 0) | bit
        else:
            for offset_cycle in range(cycle, cycle + duration):
                busy[offset_cycle] = busy.get(offset_cycle, 0) | bit
        self._claims.append((bit, cycle, duration, name))
        optype = operation.optype
        if optype is _LOAD:
            counts = self._loads
        elif optype is _STORE:
            counts = self._stores
        else:
            if optype is _MUL and shared_unit is not None and not self.unlimited_shared:
                self._unit_issues[(shared_unit, cycle)] = name
            return
        key = (cycle, row)
        counts[key] = counts.get(key, 0) + 1


@functools.lru_cache(maxsize=None)
def reachable_units(
    rows: int, cols: int, rows_shared: int, cols_shared: int
) -> Tuple[Tuple[SharedUnitId, ...], ...]:
    """Shared units reachable from each PE, indexed by the PE's bit.

    Row units come first and lower ordinals first: the order units are
    granted.  Built once per topology and shared by its trackers.
    """
    row_units = [
        tuple(("row", row, ordinal) for ordinal in range(rows_shared)) for row in range(rows)
    ]
    col_units = [
        tuple(("col", col, ordinal) for ordinal in range(cols_shared)) for col in range(cols)
    ]
    return tuple(row_units[row] + col_units[col] for row in range(rows) for col in range(cols))


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
