"""Schedule data structure produced by the loop-pipelining mapper.

A :class:`Schedule` assigns every compute/memory operation of a kernel DFG
an issue cycle, a processing element and (for shared-resource operations) a
shared unit.  Constants are *not* scheduled — they live in the
configuration cache and are available from cycle 0 — which mirrors the
paper's treatment of the constant ``C`` in the matrix-multiplication
example.

A schedule stores its entries by column: one list per
:class:`ScheduledOperation` field (operation, cycle, row, col, latency,
occupancy and shared unit) in insertion order, plus a name → position
dictionary.  :meth:`Schedule.add` places one operation at a time through
:meth:`Schedule.append`, which applies the checks of
:class:`ScheduledOperation` and :meth:`Schedule.add` without building an
entry object.  Writers that hold every entry already — the base scheduler,
the rearrangement, ``rebind_schedule`` and :func:`_restore_schedule` — hand
whole columns to :meth:`Schedule.from_columns`, which applies the same
checks to each column at once and replays the columns through
:meth:`Schedule.append` when one fails, so a bad entry raises what
appending it would.  Hot readers
(profile extraction, the rearrangement) read the lists through
:meth:`Schedule.columns`.  :class:`ScheduledOperation` entries are built
from the lists only when a caller reads entries
(:meth:`Schedule.entries_by_name`, :meth:`Schedule.get`,
:meth:`Schedule.operations`, :meth:`Schedule.operations_at`,
:meth:`Schedule.validate` and the statistics), and kept until the next
append.  Building them is idempotent: a position's fields never change once
appended, and a stored schedule is never appended to.  No two schedules
share a column list.

A schedule pickles by column: its architecture and kernel name, then one
list per :class:`Operation` field and one each for cycle, row, col,
latency, occupancy and shared unit, in insertion order.
:func:`_restore_schedule` rebuilds it through :meth:`Schedule.from_columns`;
columns of unequal length raise a :class:`SchedulingError` instead of
loading a schedule that silently lacks entries.  Pickles of the earlier
instance-dict form, which held the entry objects, still load
(:meth:`Schedule.__setstate__`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, fields
from operator import add, attrgetter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.arch.array import SharedUnitId
from repro.arch.template import ArchitectureSpec
from repro.errors import SchedulingError
from repro.ir.dfg import DFG, Operation, OpType


def _reject_fields(
    name: str, cycle: int, row: int, col: int, latency: int, occupancy: Optional[int]
) -> None:
    """Raise the :class:`SchedulingError` of the first invalid entry field."""
    if cycle < 0:
        raise SchedulingError(f"operation {name!r} scheduled at negative cycle")
    if latency < 1:
        raise SchedulingError(f"operation {name!r} must have latency >= 1")
    if occupancy is not None and occupancy < 1:
        raise SchedulingError(f"operation {name!r} must occupy its PE >= 1 cycle")
    if row < 0 or col < 0:
        raise SchedulingError(f"operation {name!r} has no PE placement")


@dataclass(frozen=True)
class ScheduledOperation:
    """One operation with its cycle, PE placement and resource binding.

    Attributes
    ----------
    operation:
        The DFG operation being scheduled.
    cycle:
        Issue cycle (0-based).
    row / col:
        Processing element executing (or issuing) the operation.
    latency:
        Cycles until the result is available (1 for primitive operations,
        the pipeline depth for multiplications on pipelined multipliers).
    occupancy:
        Cycles the issuing PE stays busy.  ``None`` means "same as the
        latency"; multiplications routed to a *shared* multiplier occupy
        their PE only for the issue cycle — the remaining stages run inside
        the shared unit while the PE is free to issue other operations.
    shared_unit:
        Identifier of the shared resource used, when the operation executes
        on one.
    """

    operation: Operation
    cycle: int
    row: int
    col: int
    latency: int = 1
    occupancy: Optional[int] = None
    shared_unit: Optional[SharedUnitId] = None

    def __post_init__(self) -> None:
        _reject_fields(
            self.operation.name, self.cycle, self.row, self.col, self.latency, self.occupancy
        )

    @property
    def pe_occupancy(self) -> int:
        """Cycles the issuing PE is busy (defaults to the result latency)."""
        return self.occupancy if self.occupancy is not None else self.latency

    @property
    def name(self) -> str:
        return self.operation.name

    @property
    def finish_cycle(self) -> int:
        """First cycle in which the result can be consumed."""
        return self.cycle + self.latency

    @property
    def position(self) -> Tuple[int, int]:
        return (self.row, self.col)

    @property
    def is_multiplication(self) -> bool:
        return self.operation.is_multiplication

    @property
    def is_memory(self) -> bool:
        return self.operation.is_memory


class ScheduleColumns(NamedTuple):
    """A schedule's stored lists, one per :class:`ScheduledOperation` field.

    Position ``i`` of every list describes the ``i``-th appended operation,
    so ``zip(*columns)`` yields each entry's constructor arguments.  The
    lists belong to the schedule: read them, never change them.
    """

    operations: List[Operation]
    cycles: List[int]
    rows: List[int]
    cols: List[int]
    latencies: List[int]
    occupancies: List[Optional[int]]
    shared_units: List[Optional[SharedUnitId]]


class Schedule:
    """A complete mapping of one kernel onto one architecture."""

    def __init__(self, architecture: ArchitectureSpec, kernel_name: str = "kernel") -> None:
        self.architecture = architecture
        self.kernel_name = kernel_name
        self._operations: List[Operation] = []
        self._cycles: List[int] = []
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._latencies: List[int] = []
        self._occupancies: List[Optional[int]] = []
        self._shared_units: List[Optional[SharedUnitId]] = []
        self._positions: Dict[str, int] = {}
        self._length = 0
        # Entries by name and by issue cycle, built on read (see _entries).
        self._built: Optional[
            Tuple[Dict[str, ScheduledOperation], Dict[int, List[ScheduledOperation]]]
        ] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(
        self,
        operation: Operation,
        cycle: int,
        row: int,
        col: int,
        latency: int = 1,
        occupancy: Optional[int] = None,
        shared_unit: Optional[SharedUnitId] = None,
    ) -> None:
        """Schedule ``operation``: the fields of a :class:`ScheduledOperation`.

        Raises what building that entry and :meth:`add`-ing it would raise,
        in the same order, but builds no entry.
        """
        name = operation.name
        if cycle < 0 or latency < 1 or row < 0 or col < 0 or (
            occupancy is not None and occupancy < 1
        ):
            _reject_fields(name, cycle, row, col, latency, occupancy)
        positions = self._positions
        if name in positions:
            raise SchedulingError(f"operation {name!r} scheduled twice")
        array = self.architecture.array
        if row >= array.rows or col >= array.cols:
            raise SchedulingError(
                f"operation {name!r} placed outside the {array.rows}x{array.cols} array"
            )
        positions[name] = len(self._operations)
        self._operations.append(operation)
        self._cycles.append(cycle)
        self._rows.append(row)
        self._cols.append(col)
        self._latencies.append(latency)
        self._occupancies.append(occupancy)
        self._shared_units.append(shared_unit)
        finish = cycle + latency
        if finish > self._length:
            self._length = finish

    @classmethod
    def from_columns(
        cls,
        architecture: ArchitectureSpec,
        kernel_name: str,
        operations: List[Operation],
        cycles: List[int],
        rows: List[int],
        cols: List[int],
        latencies: List[int],
        occupancies: List[Optional[int]],
        shared_units: List[Optional[SharedUnitId]],
    ) -> "Schedule":
        """A schedule of whole columns, one per :class:`ScheduleColumns` field.

        Applies :meth:`append`'s checks to each column at once.  When any
        entry fails one, the columns are appended entry by entry, so the
        first bad entry raises exactly what :meth:`append` raises.  Columns
        of unequal length raise a :class:`SchedulingError` naming the
        lengths.  The schedule keeps the lists it is given: pass lists that
        nothing else holds.
        """
        columns = ScheduleColumns(
            operations, cycles, rows, cols, latencies, occupancies, shared_units
        )
        _check_lengths(kernel_name, ScheduleColumns._fields, columns)
        schedule = cls(architecture, kernel_name)
        if not operations:
            return schedule
        positions = {operation.name: position for position, operation in enumerate(operations)}
        array = architecture.array
        if (
            len(positions) != len(operations)
            or min(cycles) < 0
            or min(latencies) < 1
            or min(rows) < 0
            or min(cols) < 0
            or max(rows) >= array.rows
            or max(cols) >= array.cols
            or any(occupancy is not None and occupancy < 1 for occupancy in occupancies)
        ):
            append = schedule.append
            for placement in zip(*columns):
                append(*placement)
            return schedule
        schedule._operations = operations
        schedule._cycles = cycles
        schedule._rows = rows
        schedule._cols = cols
        schedule._latencies = latencies
        schedule._occupancies = occupancies
        schedule._shared_units = shared_units
        schedule._positions = positions
        schedule._length = max(map(add, cycles, latencies))
        return schedule

    def add(self, scheduled: ScheduledOperation) -> None:
        """Add one scheduled operation; operation names must be unique."""
        self.append(
            scheduled.operation,
            scheduled.cycle,
            scheduled.row,
            scheduled.col,
            scheduled.latency,
            scheduled.occupancy,
            scheduled.shared_unit,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def columns(self) -> ScheduleColumns:
        """The stored lists (treat as read-only)."""
        return ScheduleColumns(
            self._operations,
            self._cycles,
            self._rows,
            self._cols,
            self._latencies,
            self._occupancies,
            self._shared_units,
        )

    def positions(self) -> Dict[str, int]:
        """Operation name → position in the :meth:`columns` (treat as read-only)."""
        return self._positions

    def _entries(
        self,
    ) -> Tuple[Dict[str, ScheduledOperation], Dict[int, List[ScheduledOperation]]]:
        """Entries by name (insertion order) and by issue cycle.

        Built from the lists on the first read after an append and kept
        until the next append.
        """
        built = self._built
        if built is None or len(built[0]) != len(self._operations):
            by_name: Dict[str, ScheduledOperation] = {}
            by_cycle: Dict[int, List[ScheduledOperation]] = {}
            for placement in zip(*self.columns()):
                entry = ScheduledOperation(*placement)
                by_name[entry.operation.name] = entry
                by_cycle.setdefault(entry.cycle, []).append(entry)
            built = self._built = (by_name, by_cycle)
        return built

    def get(self, name: str) -> ScheduledOperation:
        """The scheduled operation with the given DFG name."""
        try:
            return self._entries()[0][name]
        except KeyError as exc:
            raise SchedulingError(f"operation {name!r} is not in the schedule") from exc

    def entries_by_name(self) -> Dict[str, ScheduledOperation]:
        """The name → scheduled-operation mapping (treat as read-only)."""
        return self._entries()[0]

    def operations(self) -> List[ScheduledOperation]:
        """All scheduled operations ordered by (cycle, col, row)."""
        return sorted(
            self._entries()[0].values(), key=lambda entry: (entry.cycle, entry.col, entry.row)
        )

    def operations_at(self, cycle: int) -> List[ScheduledOperation]:
        """Operations issued at ``cycle``."""
        return sorted(
            self._entries()[1].get(cycle, []), key=lambda entry: (entry.col, entry.row)
        )

    @property
    def length(self) -> int:
        """Total execution cycles: the latest result-available cycle."""
        return self._length

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def multiplications_at(self, cycle: int) -> List[ScheduledOperation]:
        """Multiplication operations *issued* at ``cycle``."""
        return [entry for entry in self.operations_at(cycle) if entry.is_multiplication]

    def multiplications_in_flight_at(self, cycle: int) -> List[ScheduledOperation]:
        """Multiplications occupying a multiplier during ``cycle`` (any stage)."""
        return [
            entry
            for entry in self.entries_by_name().values()
            if entry.is_multiplication and entry.cycle <= cycle < entry.finish_cycle
        ]

    def max_multiplications_per_cycle(self) -> int:
        """Maximum multiplications executing simultaneously in any cycle.

        This is the "Mult No" column of paper Table 3: the maximum number
        of multiplications mapped to the array in a cycle.
        """
        peak = 0
        for cycle in range(self.length):
            peak = max(peak, len(self.multiplications_in_flight_at(cycle)))
        return peak

    def max_multiplication_issues_per_cycle(self) -> int:
        """Maximum multiplications *issued* in any single cycle."""
        peak = 0
        for entries in self._entries()[1].values():
            peak = max(peak, sum(1 for entry in entries if entry.is_multiplication))
        return peak

    def pe_utilisation(self) -> float:
        """Fraction of PE-cycles that issue an operation."""
        total = self.length * self.architecture.array.num_pes
        if total == 0:
            return 0.0
        return len(self) / total

    def busy_pes_at(self, cycle: int) -> List[Tuple[int, int]]:
        """PE positions occupied during ``cycle`` (issue through release)."""
        return [
            entry.position
            for entry in self.entries_by_name().values()
            if entry.cycle <= cycle < entry.cycle + entry.pe_occupancy
        ]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, dfg: DFG) -> None:
        """Check the schedule against the DFG and architecture constraints.

        Raises :class:`SchedulingError` on the first violation found:
        entries the DFG does not back (a name it lacks, or an operation
        that differs from its own), missing operations, dependence
        violations, PE double-booking, bus over-subscription or
        shared-unit conflicts.
        """
        spec = self.architecture
        by_name = self.entries_by_name()
        # The simulator executes each entry's operation but reads operand
        # ports from the DFG, so the two must agree.
        for name, entry in by_name.items():
            if name not in dfg:
                raise SchedulingError(
                    f"operation {name!r} is scheduled but kernel {dfg.name!r} has no such operation"
                )
            if entry.operation != dfg.operation(name):
                raise SchedulingError(
                    f"operation {name!r} is scheduled as {entry.operation!r}, but kernel "
                    f"{dfg.name!r} defines it as {dfg.operation(name)!r}"
                )
        for op in dfg.operations():
            if op.optype in (OpType.CONST, OpType.NOP):
                continue
            if op.name not in by_name:
                raise SchedulingError(
                    f"operation {op.name!r} of kernel {dfg.name!r} is not scheduled"
                )
        # Dependences.
        for producer, consumer in dfg.edges():
            producer_op = dfg.operation(producer)
            if producer_op.optype in (OpType.CONST, OpType.NOP):
                continue
            consumer_op = dfg.operation(consumer)
            if consumer_op.optype in (OpType.CONST, OpType.NOP):
                continue
            produced = self.get(producer)
            consumed = self.get(consumer)
            if consumed.cycle < produced.finish_cycle:
                raise SchedulingError(
                    f"dependence violated: {consumer!r} issues at cycle {consumed.cycle} "
                    f"but {producer!r} finishes at cycle {produced.finish_cycle}"
                )
        # PE occupancy (a PE is busy from issue until it releases the slot).
        occupancy: Dict[Tuple[int, int, int], str] = {}
        for entry in by_name.values():
            for cycle in range(entry.cycle, entry.cycle + entry.pe_occupancy):
                key = (cycle, entry.row, entry.col)
                if key in occupancy:
                    raise SchedulingError(
                        f"PE ({entry.row},{entry.col}) double-booked at cycle {cycle}: "
                        f"{occupancy[key]!r} and {entry.name!r}"
                    )
                occupancy[key] = entry.name
        # Row data buses.
        loads: Dict[Tuple[int, int], int] = defaultdict(int)
        stores: Dict[Tuple[int, int], int] = defaultdict(int)
        for entry in by_name.values():
            if entry.operation.optype is OpType.LOAD:
                loads[(entry.cycle, entry.row)] += 1
            elif entry.operation.optype is OpType.STORE:
                stores[(entry.cycle, entry.row)] += 1
        for (cycle, row), count in loads.items():
            if count > spec.array.row_buses.read_buses:
                raise SchedulingError(
                    f"row {row} issues {count} loads at cycle {cycle}, but only "
                    f"{spec.array.row_buses.read_buses} read buses exist"
                )
        for (cycle, row), count in stores.items():
            if count > spec.array.row_buses.write_buses:
                raise SchedulingError(
                    f"row {row} issues {count} stores at cycle {cycle}, but only "
                    f"{spec.array.row_buses.write_buses} write buses exist"
                )
        # Shared-resource issue conflicts and reachability.
        if spec.uses_sharing:
            unit_issues: Dict[Tuple[SharedUnitId, int], str] = {}
            for entry in by_name.values():
                if not entry.is_multiplication:
                    continue
                if entry.shared_unit is None:
                    raise SchedulingError(
                        f"multiplication {entry.name!r} has no shared multiplier on "
                        f"architecture {spec.name!r}"
                    )
                scope, line, _ = entry.shared_unit
                if scope == "row" and line != entry.row:
                    raise SchedulingError(
                        f"multiplication {entry.name!r} on PE row {entry.row} uses a "
                        f"multiplier of row {line}"
                    )
                if scope == "col" and line != entry.col:
                    raise SchedulingError(
                        f"multiplication {entry.name!r} on PE column {entry.col} uses a "
                        f"multiplier of column {line}"
                    )
                key = (entry.shared_unit, entry.cycle)
                if key in unit_issues:
                    raise SchedulingError(
                        f"shared multiplier {entry.shared_unit} receives two issues at "
                        f"cycle {entry.cycle}: {unit_issues[key]!r} and {entry.name!r}"
                    )
                unit_issues[key] = entry.name

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle one list per field (see the module docstring)."""
        operations, *entry_columns = self.columns()
        return _restore_schedule, (
            self.architecture,
            self.kernel_name,
            [list(map(getter, operations)) for getter in _OPERATION_COLUMNS],
            entry_columns,
        )

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Load the earlier pickle form: the instance dict, entries in ``_by_name``."""
        Schedule.__init__(self, state["architecture"], state["kernel_name"])
        for entry in state["_by_name"].values():
            self.add(entry)

    def __repr__(self) -> str:
        return (
            f"Schedule(kernel={self.kernel_name!r}, architecture={self.architecture.name!r}, "
            f"operations={len(self)}, cycles={self.length})"
        )


#: Column getters of a pickled schedule's operations: every
#: :class:`Operation` field, in constructor order.  The other columns
#: follow the remaining :class:`ScheduledOperation` fields in order.
_OPERATION_FIELDS = tuple(field.name for field in fields(Operation))
_OPERATION_COLUMNS = tuple(map(attrgetter, _OPERATION_FIELDS))


def _restore_schedule(
    architecture: ArchitectureSpec,
    kernel_name: str,
    operation_columns: List[List[Any]],
    entry_columns: List[List[Any]],
) -> Schedule:
    """Rebuild a schedule pickled by :meth:`Schedule.__reduce__`.

    Pickles name this function, so its module and name are part of the
    stored format.
    """
    _check_lengths(kernel_name, _OPERATION_FIELDS, operation_columns)
    return Schedule.from_columns(
        architecture, kernel_name, list(map(Operation, *operation_columns)), *entry_columns
    )


def _check_lengths(kernel_name: str, names: Sequence[str], columns: Sequence[List[Any]]) -> None:
    """Raise a :class:`SchedulingError` unless every column has one length."""
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        described = ", ".join(f"{name} {length}" for name, length in zip(names, lengths))
        raise SchedulingError(
            f"the columns of schedule {kernel_name!r} differ in length: {described}"
        )
