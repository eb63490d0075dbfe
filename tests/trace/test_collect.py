"""Tests for the collector layer: the wave observer, the collector, targets."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.engine.executor import WaveOutcome, WaveResult
from repro.errors import TraceError
from repro.trace.collect import TraceCollector, TracingWaveObserver, open_trace
from repro.trace.db import TRACE_DB_FILENAME
from repro.trace.spans import NullTracer, Tracer, get_tracer


def evaluation(area=1.0, time_ns=1.0):
    return SimpleNamespace(area_slices=area, total_execution_time_ns=time_ns)


def result(index, source="computed", feasible=True, area=1.0, time_ns=1.0):
    return WaveResult(
        index=index,
        key=f"k{index}",
        label=f"cand-{index}",
        evaluation=evaluation(area, time_ns),
        source=source,
        feasible=feasible,
    )


# ----------------------------------------------------------------------
# TracingWaveObserver
# ----------------------------------------------------------------------
def test_tracing_observer_counts_waves_and_results():
    tracer = Tracer()
    observer = TracingWaveObserver(tracer, suite="dsp")
    observer.base_evaluated("base", evaluation(2.0, 2.0), "computed", True)
    observer.wave_started(0, job_count=3)
    observer.wave_finished(
        WaveOutcome(
            wave_index=0,
            results=(
                result(0, source="computed", feasible=True, area=1.0, time_ns=3.0),
                result(1, source="cache", feasible=True, area=3.0, time_ns=1.0),
                result(2, source="computed", feasible=False),
            ),
            rejected=((3, "k3"), (4, "k4")),
        )
    )
    batch = tracer.drain()
    assert batch.counters["wave.count"] == 1.0
    assert batch.counters["result.count"] == 4.0  # base + three wave results
    assert batch.counters["result.source.computed"] == 3.0
    assert batch.counters["result.source.cache"] == 1.0
    assert batch.counters["result.feasible"] == 3.0
    assert batch.counters["result.rejected"] == 2.0
    # base (2,2) enters the front, (1,3) and (3,1) both join it.
    assert batch.counters["frontier.updates"] == 3.0

    (wave_span,) = batch.spans
    assert wave_span["kind"] == "wave"
    assert wave_span["attrs"] == {
        "suite": "dsp",
        "wave": 0,
        "jobs": 3,
        "results": 3,
        "rejected": 2,
        "frontier_size": 3,
    }


def test_tracing_observer_tolerates_unmatched_wave_end():
    tracer = Tracer()
    observer = TracingWaveObserver(tracer, suite="dsp")
    observer.wave_finished(WaveOutcome(wave_index=7, results=()))
    batch = tracer.drain()
    assert batch.counters["wave.count"] == 1.0
    assert batch.spans == []  # no matching wave_started; no torn span


# ----------------------------------------------------------------------
# TraceCollector
# ----------------------------------------------------------------------
def test_collector_requires_exactly_one_target(tmp_path):
    with pytest.raises(TraceError, match="exactly one"):
        TraceCollector()
    with pytest.raises(TraceError, match="exactly one"):
        TraceCollector(tmp_path, db_path=tmp_path / "t.db")


def test_collector_lifecycle_installs_flushes_and_closes(tmp_path):
    collector = TraceCollector(tmp_path, campaign="smoke")
    assert isinstance(get_tracer(), NullTracer)
    collector.install()
    try:
        assert get_tracer() is collector.tracer
        collector.install()  # idempotent
        get_tracer().span("wave", kind="wave", suite="dsp").end()
        get_tracer().counter("wave.count")
        assert collector.flush() == 1
        assert collector.flush() == 0  # buffer drained
    finally:
        collector.uninstall()
    assert isinstance(get_tracer(), NullTracer)

    facts = collector.close()
    assert facts == collector.close()  # idempotent, cached
    assert facts["db"] == str(tmp_path / TRACE_DB_FILENAME)
    assert facts["spans"] == 1
    assert facts["counters"] == {"wave.count": 1}

    with open_trace(tmp_path) as db:
        assert db.get_meta("campaign") == "smoke"
        assert db.span_count("wave") == 1
        assert db.counter("wave.count") == 1.0


def test_collector_maybe_flush_honours_threshold(tmp_path):
    with TraceCollector(db_path=tmp_path / "t.db") as collector:
        collector.tracer.span("a").end()
        assert collector.maybe_flush(threshold=2) == 0
        collector.tracer.span("b").end()
        assert collector.maybe_flush(threshold=2) == 2


def test_collector_context_manager_restores_previous_tracer(tmp_path):
    outer = Tracer()
    from repro.trace.spans import set_tracer

    previous = set_tracer(outer)
    try:
        with TraceCollector(tmp_path) as collector:
            assert get_tracer() is collector.tracer
        assert get_tracer() is outer
    finally:
        set_tracer(previous)


# ----------------------------------------------------------------------
# Target resolution
# ----------------------------------------------------------------------
def test_open_trace_resolves_every_target_kind(tmp_path):
    # A directory with a trace.db -> readonly handle on it.
    traced = tmp_path / "traced"
    TraceCollector(traced).close()
    db = open_trace(traced)
    assert db.readonly
    db.close()

    # A bare .db file.
    db = open_trace(traced / TRACE_DB_FILENAME)
    assert db.readonly
    db.close()

    # Nothing usable: a directory without trace.db, a file that is not a
    # .db (such as an old stream directory's events.jsonl), no path.
    streamed = tmp_path / "streamed"
    streamed.mkdir()
    (streamed / "events.jsonl").write_text("{}\n")
    with pytest.raises(TraceError, match="holds no trace.db"):
        open_trace(streamed)
    with pytest.raises(TraceError, match="not a trace database"):
        open_trace(streamed / "events.jsonl")
    with pytest.raises(TraceError, match="no trace database"):
        open_trace(tmp_path / "nowhere")
