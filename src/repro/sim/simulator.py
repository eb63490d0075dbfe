"""Cycle-accurate functional simulation of a mapped kernel.

The simulator executes a :class:`~repro.mapping.schedule.Schedule` against
a :class:`~repro.sim.memory.DataMemory`, producing the value of every
operation, the final memory contents and an execution trace.  It enforces
the timing semantics of the schedule while executing: an operation may only
consume operand values whose producers have finished (issue cycle +
latency), so a schedule that violates dependences is caught as a simulation
error rather than silently producing a correct-but-untimed result.

This closes the verification loop that the paper performs in RTL: the
matrix-multiplication example mapped by the loop-pipelining scheduler must
actually compute ``C * X @ Y``, which the integration tests check against
NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.template import ArchitectureSpec
from repro.errors import SimulationError
from repro.ir.dfg import DFG, OpType
from repro.mapping.schedule import Schedule
from repro.sim.functional_units import FunctionalUnitBehaviour
from repro.sim.memory import DataMemory
from repro.sim.trace import ExecutionTrace, TraceEvent


@dataclass
class SimulationResult:
    """Outcome of simulating one mapped kernel."""

    kernel: str
    architecture: str
    cycles: int
    memory: DataMemory
    values: Dict[str, int]
    trace: ExecutionTrace

    def value_of(self, operation_name: str) -> int:
        """The computed value of a named operation."""
        try:
            return self.values[operation_name]
        except KeyError as exc:
            raise SimulationError(f"operation {operation_name!r} produced no value") from exc

    @property
    def executed_operations(self) -> int:
        return len(self.trace)


class ArraySimulator:
    """Executes schedules on the reconfigurable-array model."""

    def __init__(
        self,
        architecture: Optional[ArchitectureSpec] = None,
        behaviour: Optional[FunctionalUnitBehaviour] = None,
    ) -> None:
        self.architecture = architecture
        self.behaviour = behaviour or FunctionalUnitBehaviour()

    def run(
        self,
        schedule: Schedule,
        dfg: DFG,
        memory: Optional[DataMemory] = None,
        validate: bool = True,
    ) -> SimulationResult:
        """Simulate ``schedule`` (produced from ``dfg``) against ``memory``.

        Parameters
        ----------
        schedule:
            The mapped kernel to execute.
        dfg:
            The kernel dataflow graph (provides operand ordering and
            constants).
        memory:
            Initial data memory; a fresh empty memory is used when omitted.
        validate:
            When True the schedule is validated against the DFG and the
            architecture constraints before execution.
        """
        architecture = self.architecture or schedule.architecture
        if validate:
            schedule.validate(dfg)
        data_memory = memory if memory is not None else DataMemory()
        values: Dict[str, int] = {}
        finish_cycle: Dict[str, int] = {}
        trace = ExecutionTrace()

        # Constants are available before execution starts.
        for constant in dfg.operations_of_type(OpType.CONST):
            if constant.immediate is None:
                raise SimulationError(f"constant {constant.name!r} has no immediate value")
            values[constant.name] = self.behaviour.wrap_operand(constant.immediate)
            finish_cycle[constant.name] = 0

        total_cycles = schedule.length
        for cycle in range(total_cycles):
            for entry in schedule.operations_at(cycle):
                operation = entry.operation
                operands = self._operand_values(
                    dfg, operation.name, values, finish_cycle, cycle
                )
                if operation.optype is OpType.LOAD:
                    if operation.array is None:
                        raise SimulationError(f"load {operation.name!r} has no array")
                    result: Optional[int] = data_memory.load(
                        operation.array, operation.index if operation.index is not None else 0
                    )
                elif operation.optype is OpType.STORE:
                    if operation.array is None:
                        raise SimulationError(f"store {operation.name!r} has no array")
                    if len(operands) != 1:
                        raise SimulationError(
                            f"store {operation.name!r} expects exactly one operand value"
                        )
                    data_memory.store(
                        operation.array,
                        operation.index if operation.index is not None else 0,
                        operands[0],
                    )
                    result = None
                else:
                    result = self.behaviour.execute(
                        operation.optype, operands, immediate=operation.immediate
                    )
                if result is not None:
                    values[operation.name] = result
                finish_cycle[operation.name] = entry.finish_cycle
                trace.record(
                    TraceEvent(
                        cycle=cycle,
                        row=entry.row,
                        col=entry.col,
                        operation=operation.name,
                        optype=operation.optype,
                        value=result,
                        shared_unit=entry.shared_unit,
                    )
                )
        return SimulationResult(
            kernel=schedule.kernel_name,
            architecture=architecture.name,
            cycles=total_cycles,
            memory=data_memory,
            values=values,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _operand_values(
        self,
        dfg: DFG,
        operation_name: str,
        values: Dict[str, int],
        finish_cycle: Dict[str, int],
        cycle: int,
    ) -> List[int]:
        """Operand values of ``operation_name`` in port order at ``cycle``."""
        edges = []
        for predecessor in dfg.predecessors(operation_name):
            if dfg.operation(predecessor).optype is OpType.STORE:
                # Memory-ordering edge: enforced by schedule validation, it
                # carries no operand value.
                continue
            port = dfg.port(predecessor, operation_name)
            edges.append((port if port is not None else 0, predecessor))
        edges.sort(key=lambda item: item[0])
        operand_values: List[int] = []
        for _, predecessor in edges:
            if predecessor not in values:
                raise SimulationError(
                    f"operation {operation_name!r} consumes {predecessor!r} which has not "
                    f"produced a value"
                )
            if finish_cycle.get(predecessor, 0) > cycle:
                raise SimulationError(
                    f"operation {operation_name!r} at cycle {cycle} consumes {predecessor!r} "
                    f"which only finishes at cycle {finish_cycle[predecessor]}"
                )
            operand_values.append(values[predecessor])
        return operand_values
