"""Extraction of :class:`~repro.core.stalls.ScheduleProfile` objects.

The design-space exploration estimates stalls on a lightweight summary of
the base-architecture schedule rather than on the schedule itself (so the
exploration core stays independent of the mapper).  This module builds that
summary: one record per multiplication issue, annotated with whether its
result is consumed in the very next cycle of the base schedule (the
condition under which pipelining the multiplier forces an RP stall).
"""

from __future__ import annotations

from typing import List

from repro.core.stalls import CriticalOpIssue, ScheduleProfile
from repro.ir.dfg import DFG, OpType
from repro.mapping.schedule import Schedule


def extract_profile(schedule: Schedule, dfg: DFG) -> ScheduleProfile:
    """Summarise a base-architecture ``schedule`` for stall estimation.

    Issues are listed in :meth:`Schedule.operations` order, (cycle, col,
    row), read from the schedule's columns without building its entries.
    """
    operations, cycles, rows, cols, latencies, _, _ = schedule.columns()
    positions = schedule.positions()
    multiplications = sorted(
        (
            position
            for position, operation in enumerate(operations)
            if operation.is_multiplication
        ),
        key=lambda position: (cycles[position], cols[position], rows[position]),
    )
    issues: List[CriticalOpIssue] = []
    for position in multiplications:
        operation = operations[position]
        finish = cycles[position] + latencies[position]
        has_immediate_dependent = False
        for successor in dfg.successors(operation.name):
            successor_op = dfg.operation(successor)
            if successor_op.optype in (OpType.CONST, OpType.NOP):
                continue
            successor_position = positions.get(successor)
            if successor_position is not None and cycles[successor_position] == finish:
                has_immediate_dependent = True
                break
        issues.append(
            CriticalOpIssue(
                cycle=cycles[position],
                row=rows[position],
                col=cols[position],
                iteration=operation.iteration,
                has_immediate_dependent=has_immediate_dependent,
            )
        )
    return ScheduleProfile(
        kernel=schedule.kernel_name,
        length=schedule.length,
        critical_issues=tuple(issues),
        rows=schedule.architecture.array.rows,
        cols=schedule.architecture.array.cols,
    )

