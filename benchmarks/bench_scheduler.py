"""Benchmark: the loop-pipelining list scheduler on the cold campaign's kernels.

Schedules every ``paper`` and ``h264`` kernel on the base architecture,
the scheduling a cold ``--suite paper --suite h264`` campaign does once
per kernel, and records through ``bench_metrics``:

* ``seconds``: wall time of the base schedules, the fastest of five
  uncounted passes,
* ``placed_operations``: operations placed,
* ``feasibility_probes``: ``ResourceTracker.placement_feasible`` calls,
* ``claims``: ``ResourceTracker.claim`` calls,
* ``probe_hit_ratio``: placed operations per probe.

The gates are counts, not a wall-clock race: every placed operation is
claimed exactly once, and at most one probe is made per placed operation.
On the base array a probe can fail only on a busy PE or a full row bus,
and the scheduler skips both unprobed; a scheduler that probes bus-full
rows makes ~2.3 probes per operation, one that re-proves in every cycle
that the array is full ~170.
"""

from __future__ import annotations

import time

from repro.arch import base_architecture
from repro.engine.jobs import suite_kernels
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.placement import ResourceTracker
from repro.utils.tabulate import format_table

#: Upper bound on feasibility probes per placed operation.
MAX_PROBES_PER_OPERATION = 1

#: Timed passes; ``seconds`` is the fastest.
TIMED_PASSES = 5


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

    seconds = float("inf")
    for _ in range(TIMED_PASSES):
        started = time.perf_counter()
        placed = schedule_all(kernels)
        seconds = min(seconds, time.perf_counter() - started)

    calls = {"placement_feasible": 0, "claim": 0}
    for method in calls:
        original = getattr(ResourceTracker, method)

        def counted(self, *args, _original=original, _method=method, **kwargs):
            calls[_method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(ResourceTracker, method, counted)
    assert schedule_all(kernels) == placed
    probes = calls["placement_feasible"]

    bench_metrics.update(
        seconds=round(seconds, 4),
        placed_operations=placed,
        feasibility_probes=probes,
        claims=calls["claim"],
        probe_hit_ratio=round(placed / probes, 4),
    )
    print()
    print(
        format_table(
            [[len(kernels), placed, probes, calls["claim"], round(placed / probes, 3), round(seconds, 3)]],
            headers=["schedules", "placed ops", "probes", "claims", "hit ratio", "seconds"],
            title="base scheduling of the paper + h264 kernels",
        )
    )
    assert calls["claim"] == placed
    assert probes <= MAX_PROBES_PER_OPERATION * placed
