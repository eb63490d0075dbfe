"""Benchmark: the loop-pipelining list scheduler on the cold campaign's kernels.

Schedules every ``paper`` and ``h264`` kernel on the base architecture,
the scheduling a cold ``--suite paper --suite h264`` campaign does once
per kernel, and records through ``bench_metrics``:

* ``seconds``: wall time of the base schedules (an uncounted pass),
* ``placed_operations``: operations placed,
* ``feasibility_probes``: ``ResourceTracker.placement_feasible`` calls,
* ``probe_hit_ratio``: placed operations per probe.

The only gate is a count, not a wall-clock race: at most four probes per
placed operation.  A scheduler that probes busy PEs, or re-proves in every
cycle that the array is full, makes ~170.
"""

from __future__ import annotations

import time

from repro.arch import base_architecture
from repro.engine.jobs import suite_kernels
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.placement import ResourceTracker
from repro.utils.tabulate import format_table

#: Upper bound on feasibility probes per placed operation.
MAX_PROBES_PER_OPERATION = 4


def schedule_all(kernels) -> int:
    base = base_architecture()
    return sum(
        len(LoopPipeliningScheduler(base).schedule(dfg, kernel_name=name))
        for name, dfg in kernels
    )


def test_base_scheduling_probes_per_operation(monkeypatch, bench_metrics):
    kernels = [
        (kernel.name, kernel.build())
        for suite in ("paper", "h264")
        for kernel in suite_kernels(suite)
    ]

    started = time.perf_counter()
    placed = schedule_all(kernels)
    seconds = time.perf_counter() - started

    probes = 0
    feasible = ResourceTracker.placement_feasible

    def counted(self, *args, **kwargs):
        nonlocal probes
        probes += 1
        return feasible(self, *args, **kwargs)

    monkeypatch.setattr(ResourceTracker, "placement_feasible", counted)
    assert schedule_all(kernels) == placed

    bench_metrics.update(
        seconds=round(seconds, 4),
        placed_operations=placed,
        feasibility_probes=probes,
        probe_hit_ratio=round(placed / probes, 4),
    )
    print()
    print(
        format_table(
            [[len(kernels), placed, probes, round(placed / probes, 3), round(seconds, 3)]],
            headers=["schedules", "placed ops", "probes", "hit ratio", "seconds"],
            title="base scheduling of the paper + h264 kernels",
        )
    )
    assert probes <= MAX_PROBES_PER_OPERATION * placed
