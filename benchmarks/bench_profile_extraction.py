"""Micro-benchmark: schedule-profile extraction on the H.264 kernels.

``extract_profile`` checks, for every successor of every multiplication,
whether the successor issues in the very cycle the product becomes
available.  The seed did that over the schedule's entry objects, with a
membership test plus a guarded accessor call per successor
(``successor in schedule`` + ``schedule.get(successor)``).  The current
implementation reads the schedule's columns (``Schedule.columns``) and
builds no entry: it sorts the multiplications' positions once and makes
one ``dict.get`` in the name → position map per successor.  The seed loop
stays the oracle: this benchmark asserts both produce identical profiles
on the H.264 kernels (QPEL is the multiplication-heavy one).

The gate is a count, not a wall-clock race: on a schedule whose entries
were never read, ``extract_profile`` builds no ``ScheduledOperation``,
while the seed loop builds one per scheduled operation (which shows the
counter is live).  The best-of-N timings of both are printed as a table
but not gated.
"""

from __future__ import annotations

import time
from typing import List

from repro.core.stalls import CriticalOpIssue, ScheduleProfile
from repro.ir.dfg import DFG, OpType
from repro.kernels import h264_kernels
from repro.mapping import RSPMapper
from repro.mapping.profile import extract_profile
from repro.mapping.schedule import Schedule, ScheduledOperation
from repro.utils.tabulate import format_table

#: Timing repetitions; the best-of-N minimum is reported, which is robust
#: against scheduler noise on shared CI machines.
REPEATS = 20


def seed_extract_profile(schedule: Schedule, dfg: DFG) -> ScheduleProfile:
    """The seed's extraction loop (guarded accessor per successor lookup)."""
    issues: List[CriticalOpIssue] = []
    for entry in schedule.operations():
        if not entry.is_multiplication:
            continue
        has_immediate_dependent = False
        for successor in dfg.successors(entry.name):
            successor_op = dfg.operation(successor)
            if successor_op.optype in (OpType.CONST, OpType.NOP):
                continue
            if successor in schedule and schedule.get(successor).cycle == entry.finish_cycle:
                has_immediate_dependent = True
                break
        issues.append(
            CriticalOpIssue(
                cycle=entry.cycle,
                row=entry.row,
                col=entry.col,
                iteration=entry.operation.iteration,
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


def best_of_interleaved(first, second, *args):
    """Best-of timings of two functions, sampled alternately.

    Interleaving makes the comparison immune to drift (cache warm-up,
    frequency scaling) that would bias whichever function runs first.
    """
    bests = [float("inf"), float("inf")]
    for _ in range(REPEATS):
        for position, function in enumerate((first, second)):
            started = time.perf_counter()
            function(*args)
            bests[position] = min(bests[position], time.perf_counter() - started)
    return tuple(bests)


def entries_built(monkeypatch, function, *args):
    """``function(*args)`` and the ``ScheduledOperation`` objects it built."""
    built = []
    post_init = ScheduledOperation.__post_init__

    def counted(entry):
        built.append(entry)
        post_init(entry)

    with monkeypatch.context() as patch:
        patch.setattr(ScheduledOperation, "__post_init__", counted)
        result = function(*args)
    return result, len(built)


def test_profile_extraction_builds_no_schedule_entries(monkeypatch):
    # A mapper of its own: no other benchmark has read these schedules'
    # entries, so the seed loop has to build every one of them.
    mapper = RSPMapper()
    rows = []
    for kernel in h264_kernels():
        schedule = mapper.base_schedule(kernel)
        dfg = mapper.build_dfg(kernel)

        profile, columns_built = entries_built(monkeypatch, extract_profile, schedule, dfg)
        seed_profile, seed_built = entries_built(
            monkeypatch, seed_extract_profile, schedule, dfg
        )
        # Identical output — the optimisation must be behaviour-free.
        assert profile == seed_profile
        assert columns_built == 0, f"{kernel.name}: extract_profile built {columns_built} entries"
        assert seed_built == len(schedule), (
            f"{kernel.name}: the seed loop built {seed_built} entries for "
            f"{len(schedule)} scheduled operations"
        )

        seed_seconds, dict_seconds = best_of_interleaved(
            seed_extract_profile, extract_profile, schedule, dfg
        )
        speedup = seed_seconds / dict_seconds if dict_seconds else float("inf")
        rows.append(
            [
                kernel.name,
                dfg.multiplication_count(),
                seed_built,
                columns_built,
                round(seed_seconds * 1e6, 1),
                round(dict_seconds * 1e6, 1),
                f"{speedup:.2f}x",
            ]
        )

    print()
    print(
        format_table(
            rows,
            headers=[
                "kernel",
                "mults",
                "seed entries",
                "column entries",
                "seed (us)",
                "columns (us)",
                "speedup",
            ],
            title=f"extract_profile micro-benchmark (best of {REPEATS}, ungated)",
        )
    )
