"""Tests for the collector layer: observers, the collector, backfill."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.engine.executor import WaveObserver, WaveOutcome, WaveResult
from repro.engine.stream import EventLog
from repro.errors import TraceError
from repro.observers import MultiObserver, compose_observers
from repro.trace.collect import (
    TraceCollector,
    TracingWaveObserver,
    import_event_log,
    open_trace,
)
from repro.trace.db import TRACE_DB_FILENAME, TraceDB
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
# Observer composition
# ----------------------------------------------------------------------
class RecordingObserver(WaveObserver):
    def __init__(self):
        self.calls = []

    def wave_started(self, wave_index, job_count):
        self.calls.append(("started", wave_index, job_count))

    def wave_finished(self, outcome):
        self.calls.append(("finished", outcome.wave_index))

    def base_evaluated(self, key, evaluation, source, feasible):
        self.calls.append(("base", key, source, feasible))


def test_compose_observers_collapses_trivial_cases():
    assert compose_observers() is None
    assert compose_observers(None, None) is None
    single = RecordingObserver()
    assert compose_observers(None, single) is single


def test_compose_observers_fans_out_in_order():
    first, second = RecordingObserver(), RecordingObserver()
    combined = compose_observers(first, None, second)
    assert isinstance(combined, MultiObserver)
    combined.wave_started(0, 5)
    combined.base_evaluated("k", evaluation(), "computed", True)
    combined.wave_finished(WaveOutcome(wave_index=0, results=()))
    expected = [("started", 0, 5), ("base", "k", "computed", True), ("finished", 0)]
    assert first.calls == expected
    assert second.calls == expected


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
# EventLog backfill and target resolution
# ----------------------------------------------------------------------
def write_journal(path, waves=2, results_per_wave=3):
    with EventLog(path) as log:
        log.emit("campaign_start", campaign="backfill", suites=["dsp"])
        for wave in range(waves):
            log.emit("wave_start", suite="dsp", wave=wave, jobs=results_per_wave)
            for index in range(results_per_wave):
                log.emit(
                    "result",
                    suite="dsp",
                    wave=wave,
                    key=f"k{wave}-{index}",
                    label=f"cand-{index}",
                    source="computed" if index else "cache",
                    feasible=index % 2 == 0,
                    area_slices=float(index),
                    execution_time_ns=float(wave),
                )
            log.emit(
                "frontier_update", suite="dsp", key=f"k{wave}-0", vector=[1.0, 1.0], size=1
            )
            log.emit(
                "wave_end",
                suite="dsp",
                wave=wave,
                results=results_per_wave,
                rejected=1,
                frontier_size=1,
            )
        log.emit("campaign_end", campaign="backfill", waves=waves)


def test_import_event_log_rebuilds_spans_and_counters(tmp_path):
    journal = tmp_path / "events.jsonl"
    write_journal(journal, waves=2, results_per_wave=3)
    db, facts = import_event_log(journal)
    try:
        assert facts["waves"] == 2
        assert facts["results"] == 6
        assert facts["spans"] == 3  # one campaign span + two wave spans
        assert db.span_count("campaign") == 1
        assert db.span_count("wave") == 2
        assert db.counter("wave.count") == 2.0
        assert db.counter("result.count") == 6.0
        assert db.counter("result.source.cache") == 2.0
        assert db.counter("result.source.computed") == 4.0
        assert db.counter("result.feasible") == 4.0
        assert db.counter("frontier.updates") == 2.0
        campaign = db.spans(kind="campaign")[0]
        assert campaign["name"] == "backfill"
        waves = db.wave_timeline("dsp")
        assert [w["attrs"]["jobs"] for w in waves] == [3, 3]
        assert all(w["parent_id"] == campaign["span_id"] for w in waves)
        assert db.get_meta("imported_from") == str(journal)
    finally:
        db.close()


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

    # A directory holding only an event journal -> in-memory backfill.
    streamed = tmp_path / "streamed"
    streamed.mkdir()
    write_journal(streamed / "events.jsonl", waves=1, results_per_wave=1)
    db = open_trace(streamed)
    assert db.path is None
    assert db.counter("wave.count") == 1.0
    db.close()

    # A bare journal file.
    db = open_trace(streamed / "events.jsonl")
    assert db.counter("result.count") == 1.0
    db.close()

    # Nothing usable.
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(TraceError, match="holds neither"):
        open_trace(empty)
    with pytest.raises(TraceError, match="no trace database"):
        open_trace(tmp_path / "nowhere")
