"""Benchmark: engine scaling — cache hits, early reject, batching.

Runs the nine-kernel paper domain over an enlarged candidate grid
(``shr``/``shc`` in 0..7, pipeline stages in {1, 2, 3, 4} — 253
candidates) through the exploration engine and compares:

* the scalar per-candidate sweep (the seed's semantics) against a cold
  and a warm cache (the second sweep must be served entirely from the
  JSON-lines store),
* the full sweep against the dominance-based early-reject filter,
* the scalar sweep against the batch path (memoised stall tables).

All configurations must select the same design point as the scalar
sweep.  The scalar side runs through the ``scalar_evaluation`` fixture,
which substitutes the scalar models for the engine's batch evaluator.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import replace

import pytest

from repro.core.exploration import RSPDesignSpaceExplorer
from repro.core.rsp_params import enumerate_design_space
from repro.engine.cache import EvaluationCache
from repro.engine.executor import run_exploration
from repro.kernels import paper_suite
from repro.mapping.profile import extract_profile
from repro.utils.tabulate import format_table


@pytest.fixture(scope="module")
def scaling_grid():
    grid = enumerate_design_space(
        max_rows_shared=7, max_cols_shared=7, stage_options=(1, 2, 3, 4)
    )
    assert len(grid) >= 200
    return grid


@pytest.fixture(scope="module")
def paper_explorer(mapper):
    profiles = {}
    for kernel in paper_suite():
        result = mapper.map_kernel(kernel, mapper.base)
        profiles[kernel.name] = extract_profile(result.base_schedule, result.dfg)
    return RSPDesignSpaceExplorer(profiles)


def fresh_explorer(explorer):
    """A copy of ``explorer`` with its own models and profile objects.

    Prices are memoised per model pair and stall tables per profile
    object, so a run on the copy starts with neither, as a cold grid does.
    """
    profiles = {name: replace(profile) for name, profile in explorer.profiles.items()}
    return RSPDesignSpaceExplorer(profiles, array=explorer.array)


def timed_run(explorer, grid, **kwargs):
    started = time.perf_counter()
    outcome = run_exploration(explorer, candidates=grid, **kwargs)
    return outcome, time.perf_counter() - started


def test_engine_scaling_on_enlarged_grid(
    paper_explorer, scaling_grid, tmp_path, bench_metrics, scalar_evaluation
):
    explorer, grid = paper_explorer, scaling_grid

    # Reference: the seed-equivalent scalar sweep (facade semantics) every
    # other configuration is compared against.  The batch-vs-scalar
    # comparison has its own gated test below.
    with scalar_evaluation():
        serial, serial_seconds = timed_run(explorer, grid)
    reference_selected = serial.result.selected.parameters
    reference_front = [e.parameters for e in serial.result.pareto]

    # Cold then warm persistent cache.
    cache_path = tmp_path / "evals.jsonl"
    cold, cold_seconds = timed_run(explorer, grid, cache=EvaluationCache(cache_path))
    warm, warm_seconds = timed_run(explorer, grid, cache=EvaluationCache(cache_path))

    # Dominance-based early reject.
    rejecting, reject_seconds = timed_run(explorer, grid, early_reject=True)

    bench_metrics.update(
        {
            "candidates": len(grid),
            "serial_seconds": round(serial_seconds, 6),
            "cache_cold_seconds": round(cold_seconds, 6),
            "cache_warm_seconds": round(warm_seconds, 6),
            "warm_hit_rate": warm.stats.cache_hit_rate,
            "early_reject_seconds": round(reject_seconds, 6),
            "early_rejected": rejecting.stats.early_rejected,
        }
    )

    rows = [
        ["scalar", serial.stats.evaluated, "-", "-", round(serial_seconds, 3)],
        ["cache cold", cold.stats.evaluated, cold.stats.cache_hits,
         cold.stats.cache_misses, round(cold_seconds, 3)],
        ["cache warm", warm.stats.evaluated, warm.stats.cache_hits,
         warm.stats.cache_misses, round(warm_seconds, 3)],
        ["early reject", rejecting.stats.evaluated, "-", "-", round(reject_seconds, 3)],
    ]
    print()
    print(
        format_table(
            rows,
            headers=["configuration", "evaluated", "hits", "misses", "seconds"],
            title=f"engine scaling over {len(grid)} candidates, nine-kernel domain",
        )
    )
    print(
        f"selected: {reference_selected.describe()}  "
        f"(front size {len(reference_front)}, early-rejected "
        f"{len(rejecting.rejected)} candidates)"
    )

    # Every configuration agrees with the seed-equivalent scalar sweep.
    for outcome in (cold, warm, rejecting):
        assert outcome.result.selected.parameters == reference_selected
        assert [e.parameters for e in outcome.result.pareto] == reference_front

    # The warm cache serves the whole sweep without a single evaluation.
    assert warm.stats.evaluated == 0
    assert warm.stats.cache_misses == 0
    assert warm.stats.cache_hit_rate == 1.0
    assert warm_seconds < serial_seconds

    # Early reject prunes a substantial share of the expensive evaluations.
    assert rejecting.stats.early_rejected > len(grid) * 0.3
    assert rejecting.stats.evaluated < serial.stats.evaluated


#: The acceptance bar for the batch evaluation fast path.
BATCH_SPEEDUP_FLOOR = 5.0


def test_batch_evaluation_speedup_on_cold_grid(
    paper_explorer, scaling_grid, bench_metrics, scalar_evaluation
):
    """The acceptance bar for the batch wave evaluator: answering stalls
    from memoised per-profile tables runs the 253-candidate cold grid at
    least 5x faster than the scalar per-candidate walk, with
    byte-identical exploration results."""
    from repro.utils.serialization import to_json

    explorer, grid = paper_explorer, scaling_grid

    # Warm-ups, discarded: first calls pay one-time costs on both sides
    # (module caches) that are not the steady state a campaign sees.
    # Every timed run gets a fresh explorer, so the batch side prices
    # every design and builds every profile table again — those costs
    # are part of the fast path.
    with scalar_evaluation():
        scalar_reference, _ = timed_run(explorer, grid)
    batch_reference, _ = timed_run(explorer, grid)

    # Interleaved fastest-of-N: one sweep is short, and scheduler
    # preemption inflates single runs by 10-30% while the timing floor
    # stays sharp, so the minimum discards preempted runs instead of
    # averaging them into a statistic that cannot resolve the 5x bar.
    # Interleaving lets both sides see the same machine load.
    scalar_times = []
    batch_times = []
    for repeat in range(5):
        runs = [(scalar_times, scalar_evaluation), (batch_times, contextlib.nullcontext)]
        if repeat % 2:
            runs.reverse()
        for times, evaluation in runs:
            cold_explorer = fresh_explorer(explorer)
            gc.collect()
            gc.disable()
            try:
                with evaluation():
                    _, seconds = timed_run(cold_explorer, grid)
            finally:
                gc.enable()
            times.append(seconds)

    speedup = min(scalar_times) / min(batch_times)
    print(
        f"\nbatch evaluation: scalar {min(scalar_times):.3f}s, "
        f"batch {min(batch_times):.3f}s -> {speedup:.1f}x"
    )
    bench_metrics.update(
        {
            "candidates": len(grid),
            "scalar_seconds": round(min(scalar_times), 6),
            "batch_seconds": round(min(batch_times), 6),
            "speedup": round(speedup, 3),
        }
    )

    assert batch_reference.stats.evaluated == scalar_reference.stats.evaluated == len(grid)

    # The fast path changes throughput, never results: the exploration
    # outcomes serialise byte-identically.
    assert to_json(batch_reference.result) == to_json(scalar_reference.result)

    assert speedup >= BATCH_SPEEDUP_FLOOR, (
        f"batch path {speedup:.2f}x over scalar "
        f"(floor {BATCH_SPEEDUP_FLOOR:.0f}x)"
    )
