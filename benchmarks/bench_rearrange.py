"""Benchmark: exact mapping of the paper kernels onto the default grid.

Maps every ``paper`` kernel onto each of the 16 non-base designs of the
default 17-point exploration grid through one ``RSPMapper`` on an
in-memory store, the exact-mapping loop that checks the stall estimator,
and records through ``bench_metrics``:

* ``seconds``: wall time of the 144 mappings (an uncounted pass; the base
  schedules are made before the clock starts),
* ``rearrange_passes``: ``rearrange_schedule`` calls of the ``rearrange``
  stage,
* ``feasibility_probes``: ``ResourceTracker.try_claim`` calls, one per
  (operation, cycle) the re-timing loop tries,
* ``placed_operations``: ``try_claim`` calls that placed the operation,
* ``entry_constructions``: ``ScheduledOperation`` objects built.

The gates are counts, not a wall-clock race:

* one actual pass per (kernel, design) plus one stall-free pass per
  kernel and multiplier latency, because every design of the grid shares
  and uses the default array (running the stall-free pass for every
  design makes 288);
* exactly :data:`PROBES` probes and :data:`PLACED` placements: the
  ``placement_feasible`` and ``claim`` calls a probe-then-claim loop makes
  for the same mappings, so probing with ``try_claim`` visits the same
  cycles;
* no ``ScheduledOperation`` built: the re-timing loop appends to the
  schedule's columns, and nothing in an exact mapping reads entries.
"""

from __future__ import annotations

import time
from collections import Counter

import repro.flowgraph.mapping as mapping_nodes
from repro.core.rsp_params import enumerate_design_space
from repro.kernels import paper_suite
from repro.mapping import RSPMapper
from repro.mapping.placement import ResourceTracker
from repro.mapping.schedule import ScheduledOperation
from repro.utils.tabulate import format_table

#: 9 kernels x 16 designs actual passes, plus 9 kernels x 2 latencies.
MAX_REARRANGE_PASSES = 144 + 18
#: (operation, cycle) pairs the re-timing loop tries, and those that place.
PROBES = 113_354
PLACED = 91_008


def test_exact_mapping_rearrange_passes(monkeypatch, bench_metrics):
    kernels = paper_suite()
    designs = [
        parameters.to_architecture()
        for parameters in enumerate_design_space()
        if parameters.kind != "base"
    ]

    def prepared_mapper():
        mapper = RSPMapper()
        for kernel in kernels:
            mapper.base_schedule(kernel)
        return mapper

    def map_all(mapper):
        return [
            mapper.map_kernel(kernel, design).cycles for design in designs for kernel in kernels
        ]

    mapper = prepared_mapper()
    started = time.perf_counter()
    cycles = map_all(mapper)
    seconds = time.perf_counter() - started

    counts: Counter = Counter()

    def count_calls(owner, attribute, metric, success_metric=None):
        original = getattr(owner, attribute)

        def counted(*args, **kwargs):
            counts[metric] += 1
            result = original(*args, **kwargs)
            if success_metric is not None and result[0]:
                counts[success_metric] += 1
            return result

        monkeypatch.setattr(owner, attribute, counted)

    mapper = prepared_mapper()
    count_calls(mapping_nodes, "rearrange_schedule", "rearrange_passes")
    count_calls(ResourceTracker, "try_claim", "feasibility_probes", "placed_operations")
    count_calls(ScheduledOperation, "__post_init__", "entry_constructions")
    assert map_all(mapper) == cycles

    passes = counts["rearrange_passes"]
    bench_metrics.update(
        seconds=round(seconds, 4),
        rearrange_passes=passes,
        feasibility_probes=counts["feasibility_probes"],
        placed_operations=counts["placed_operations"],
        entry_constructions=counts["entry_constructions"],
    )
    print()
    print(
        format_table(
            [
                [
                    len(cycles),
                    passes,
                    counts["placed_operations"],
                    counts["feasibility_probes"],
                    round(seconds, 3),
                ]
            ],
            headers=["mappings", "passes", "placed ops", "probes", "seconds"],
            title="exact mapping of the paper kernels onto the default grid",
        )
    )
    assert len(cycles) == 144
    assert passes <= MAX_REARRANGE_PASSES
    assert counts["feasibility_probes"] == PROBES
    assert counts["placed_operations"] == PLACED
    assert counts["entry_constructions"] == 0
