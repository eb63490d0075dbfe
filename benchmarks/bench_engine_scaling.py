"""Benchmark: engine scaling — cache hits, early reject, tracing, batching.

Runs the nine-kernel paper domain over an enlarged candidate grid
(``shr``/``shc`` in 0..7, pipeline stages in {1, 2, 3, 4} — 253
candidates) through the exploration engine and compares:

* the scalar per-candidate sweep (the seed's semantics) against a cold
  and a warm cache (the second sweep must be served entirely from the
  JSON-lines store),
* the full sweep against the dominance-based early-reject filter,
* untraced against traced sweeps,
* the scalar sweep against the batch path (memoised stall tables).

All configurations must select the same design point as the scalar
sweep.  The scalar side runs through the ``scalar_evaluation`` fixture,
which substitutes the scalar models for the engine's batch evaluator.
"""

from __future__ import annotations

import contextlib
import gc
import time

import pytest

from repro.core.exploration import RSPDesignSpaceExplorer
from repro.core.rsp_params import enumerate_design_space
from repro.engine.cache import EvaluationCache
from repro.engine.executor import run_exploration
from repro.kernels import paper_suite
from repro.mapping.profile import extract_profile
from repro.trace.collect import TraceCollector
from repro.utils.tabulate import format_table

#: Tracing must stay within this fraction of the untraced wall clock.
TRACE_OVERHEAD_CEILING = 0.05


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


def fastest_traced_pairs(explorer, grid, directory, campaign):
    """Fastest untraced and traced sweeps over interleaved pairs.

    One sweep is short, and scheduler preemption inflates individual runs
    by 10-30% (measured CV ~9%) while the timing floor — the true compute
    time — stays sharp.  So interleave untraced/traced runs (both sides
    see the same machine load) and compare fastest-of-N: the minimum
    discards the preempted runs entirely instead of averaging their noise
    into a statistic that cannot resolve a 5% bar.  Alternating which
    side runs first keeps a slow stretch from starving one side of a
    clean run; pairs keep coming until neither side's floor has improved
    for ``patience`` consecutive pairs, so a drifting host gets extra
    attempts instead of a fixed (and maybe unlucky) sample count.  GC is
    paused inside the timed windows (and run between them) so collection
    pauses — the traced side allocates more — do not land on either
    clock.

    Returns ``(untraced_seconds, traced_seconds, pairs, traced_outcome,
    spans_flushed)``; the trace DB lands in ``directory``.
    """
    min_pairs, max_pairs, patience = 7, 25, 4
    untraced_times = []
    traced_times = []
    timed_run(explorer, grid)  # warm-up, discarded

    def timed_quiet(observer):
        gc.collect()
        gc.disable()
        try:
            return timed_run(explorer, grid, observer=observer)
        finally:
            gc.enable()

    directory.mkdir(parents=True, exist_ok=True)
    with TraceCollector(directory, campaign=campaign) as collector:
        observer = collector.observer("paper")
        pairs = stale = 0
        while pairs < min_pairs or (stale < patience and pairs < max_pairs):
            runs = [(untraced_times, None), (traced_times, observer)]
            if pairs % 2:
                runs.reverse()
            improved = False
            for times, wave_observer in runs:
                outcome, seconds = timed_quiet(wave_observer)
                improved = improved or not times or seconds < min(times)
                times.append(seconds)
                if wave_observer is not None:
                    traced = outcome
            stale = 0 if improved else stale + 1
            pairs += 1
    return min(untraced_times), min(traced_times), pairs, traced, collector.spans_flushed


def test_tracing_overhead_stays_under_five_percent(
    paper_explorer, scaling_grid, tmp_path, bench_metrics, scalar_evaluation
):
    """The acceptance bar for the trace layer: tracing the full
    253-candidate sweep costs <5% wall clock, and the resulting DB
    reproduces the run's wave/result/hit counts exactly.

    Gated on the scalar path (through ``scalar_evaluation``): the
    per-result cost is what's being bounded, so the denominator must be
    the per-candidate sweep the ceiling was calibrated against.  The same
    observer over the batch sweep is recorded as
    ``batch_overhead_fraction`` but not gated: the batch path shrinks the
    sweep ~10x while the observer's per-result cost stays fixed."""
    explorer, grid = paper_explorer, scaling_grid
    scalar_dir = tmp_path / "scalar"
    with scalar_evaluation():
        untraced, traced_seconds, pairs, traced, spans = fastest_traced_pairs(
            explorer, grid, scalar_dir, "overhead"
        )
    overhead = traced_seconds / untraced - 1.0
    batch_untraced, batch_traced, batch_pairs, _, _ = fastest_traced_pairs(
        explorer, grid, tmp_path / "batch", "batch-overhead"
    )
    batch_overhead = batch_traced / batch_untraced - 1.0
    print(
        f"\ntracing overhead: untraced {untraced:.3f}s, "
        f"traced {traced_seconds:.3f}s -> {100.0 * overhead:.2f}% "
        f"(fastest of {pairs} interleaved pairs, {spans} spans); "
        f"batched {batch_untraced:.4f}s -> {batch_traced:.4f}s, "
        f"{100.0 * batch_overhead:.2f}% (fastest of {batch_pairs} pairs)"
    )
    bench_metrics.update(
        {
            "candidates": len(grid),
            "repeats": pairs,
            "untraced_seconds": round(untraced, 6),
            "traced_seconds": round(traced_seconds, 6),
            "overhead_fraction": round(overhead, 6),
            "spans_flushed": spans,
            "batch_untraced_seconds": round(batch_untraced, 6),
            "batch_traced_seconds": round(batch_traced, 6),
            "batch_overhead_fraction": round(batch_overhead, 6),
        }
    )
    assert overhead < TRACE_OVERHEAD_CEILING, (
        f"tracing cost {100.0 * overhead:.2f}% wall clock "
        f"(ceiling {100.0 * TRACE_OVERHEAD_CEILING:.0f}%)"
    )

    # The DB reproduces the runs' counts exactly: every traced pair
    # sweeps the identical grid, so the totals are exact multiples of
    # one outcome.
    from repro.trace.collect import open_trace

    with open_trace(scalar_dir) as db:
        assert db.counter("wave.count") == pairs * traced.stats.waves
        assert db.span_count("wave") == pairs * traced.stats.waves
        assert db.counter("result.count") == pairs * traced.stats.total_jobs
        assert db.counter("result.source.computed") == pairs * traced.stats.evaluated


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
    # The timed batch runs still rebuild the evaluator's profile tables
    # every run — that cost is part of the fast path.
    with scalar_evaluation():
        scalar_reference, _ = timed_run(explorer, grid)
    batch_reference, _ = timed_run(explorer, grid)

    # Interleaved fastest-of-N, same rationale as the tracing-overhead
    # test: the minimum discards scheduler preemption instead of
    # averaging it into a statistic that cannot resolve the 5x bar.
    scalar_times = []
    batch_times = []
    for repeat in range(5):
        runs = [(scalar_times, scalar_evaluation), (batch_times, contextlib.nullcontext)]
        if repeat % 2:
            runs.reverse()
        for times, evaluation in runs:
            gc.collect()
            gc.disable()
            try:
                with evaluation():
                    _, seconds = timed_run(explorer, grid)
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
