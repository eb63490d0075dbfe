"""Execution trace of the cycle-accurate simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.dfg import OpType


@dataclass(frozen=True)
class TraceEvent:
    """One operation completion observed during simulation."""

    cycle: int
    row: int
    col: int
    operation: str
    optype: OpType
    value: Optional[int]
    shared_unit: Optional[Tuple[str, int, int]] = None

    @property
    def pe_name(self) -> str:
        return f"PE[{self.row}][{self.col}]"


class ExecutionTrace:
    """Ordered list of :class:`TraceEvent` with small query helpers."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        """Append one event."""
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self) -> List[TraceEvent]:
        """All events in issue order (cycle, column, row)."""
        return sorted(self._events, key=lambda event: (event.cycle, event.col, event.row))

    def events_at(self, cycle: int) -> List[TraceEvent]:
        """Events issued at ``cycle``."""
        return [event for event in self.events() if event.cycle == cycle]

    def events_of_type(self, optype: OpType) -> List[TraceEvent]:
        """Events of a given operation type."""
        return [event for event in self.events() if event.optype is optype]

    def busiest_cycle(self) -> Tuple[int, int]:
        """(cycle, operation count) of the cycle with the most activity."""
        per_cycle: Dict[int, int] = {}
        for event in self._events:
            per_cycle[event.cycle] = per_cycle.get(event.cycle, 0) + 1
        if not per_cycle:
            return (0, 0)
        cycle = max(per_cycle, key=lambda key: per_cycle[key])
        return cycle, per_cycle[cycle]

    def format(self, max_events: Optional[int] = None) -> str:
        """Readable multi-line rendering of the trace."""
        lines = []
        for event in self.events()[: max_events if max_events is not None else len(self._events)]:
            value_text = "-" if event.value is None else str(event.value)
            shared_text = f" via {event.shared_unit}" if event.shared_unit else ""
            lines.append(
                f"cycle {event.cycle:4d}  {event.pe_name:10s} "
                f"{event.optype.value:6s} {event.operation:24s} = {value_text}{shared_text}"
            )
        return "\n".join(lines)
