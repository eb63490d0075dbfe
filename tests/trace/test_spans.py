"""Tests for the span tracer: nesting, counters, drains, the null default."""

from __future__ import annotations

import threading

import pytest

from repro.trace.spans import (
    NULL_SPAN,
    STATUS_ERROR,
    STATUS_OK,
    NullTracer,
    TraceBatch,
    Tracer,
    get_tracer,
    set_tracer,
)


# ----------------------------------------------------------------------
# Span production and nesting
# ----------------------------------------------------------------------
def test_spans_nest_and_parent_automatically():
    tracer = Tracer()
    with tracer.span("outer", kind="suite") as outer:
        assert tracer.current_span_id == outer.span_id
        with tracer.span("inner", kind="wave") as inner:
            assert inner.parent_id == outer.span_id
        assert tracer.current_span_id == outer.span_id
    assert tracer.current_span_id is None

    batch = tracer.drain()
    assert [record["name"] for record in batch.spans] == ["inner", "outer"]
    assert batch.spans[0]["parent_id"] == batch.spans[1]["span_id"]
    assert batch.spans[1]["parent_id"] is None


def test_span_ids_are_pid_prefixed_and_unique():
    tracer = Tracer()
    for _ in range(3):
        tracer.span("s").end()
    ids = [record["span_id"] for record in tracer.drain().spans]
    assert len(set(ids)) == 3
    assert all(span_id.startswith(f"{tracer.pid:x}-") for span_id in ids)


def test_span_records_error_status_on_exception():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("no")
    (record,) = tracer.drain().spans
    assert record["status"] == STATUS_ERROR


def test_span_end_is_idempotent_and_accepts_status():
    tracer = Tracer()
    span = tracer.span("once")
    span.end(STATUS_ERROR)
    span.end(STATUS_OK)  # second end: no effect, no second record
    batch = tracer.drain()
    assert len(batch.spans) == 1
    assert batch.spans[0]["status"] == STATUS_ERROR


def test_span_attributes_via_kwargs_and_set():
    tracer = Tracer()
    span = tracer.span("attrs", kind="stage", suite="dsp")
    span.set("jobs", 4).set("hit", False)
    span.end()
    (record,) = tracer.drain().spans
    assert record["kind"] == "stage"
    assert record["attrs"] == {"suite": "dsp", "jobs": 4, "hit": False}
    assert record["duration_s"] >= 0.0


def test_record_span_parents_to_the_open_span():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        tracer.record_span("measured", kind="stage", duration_s=0.25, hit=True)
    records = {record["name"]: record for record in tracer.drain().spans}
    assert records["measured"]["parent_id"] == parent.span_id
    assert records["measured"]["duration_s"] == 0.25
    assert records["measured"]["start_ts"] <= records["parent"]["start_ts"] + 1.0


# ----------------------------------------------------------------------
# Counters, annotations, drains
# ----------------------------------------------------------------------
def test_counters_aggregate_until_drained():
    tracer = Tracer()
    tracer.counter("wave.count")
    tracer.counter("wave.count")
    tracer.counter("result.count", 3.0)
    batch = tracer.drain()
    assert batch.counters == {"wave.count": 2.0, "result.count": 3.0}
    assert tracer.drain().counters == {}  # drained clean
    assert tracer.counter_increments == 3  # lifetime total survives drains


def test_drain_is_atomic_and_resets_buffers():
    tracer = Tracer()
    tracer.span("a").end()
    tracer.annotate("note", detail=1)
    first = tracer.drain()
    assert bool(first)
    assert len(first.spans) == 1
    assert first.annotations[0]["message"] == "note"
    second = tracer.drain()
    assert not bool(second)
    assert isinstance(second, TraceBatch)


def test_concurrent_threads_record_without_loss():
    tracer = Tracer()

    def work(index: int) -> None:
        for step in range(50):
            with tracer.span(f"t{index}", kind="span", step=step):
                tracer.counter("steps")

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    batch = tracer.drain()
    assert len(batch.spans) == 200
    assert len({record["span_id"] for record in batch.spans}) == 200
    assert batch.counters["steps"] == 200.0
    # Per-thread stacks: no span ever parented across threads at top level.
    assert all(record["parent_id"] is None for record in batch.spans)


# ----------------------------------------------------------------------
# The null default and installation
# ----------------------------------------------------------------------
def test_null_tracer_is_inert():
    null = NullTracer()
    assert not null.active
    assert null.span("x", jobs=1) is NULL_SPAN
    with null.span("y") as span:
        span.set("k", "v")
    null.record_span("z", duration_s=1.0)
    null.counter("c")
    assert not null.drain()
    assert null.pending == 0
    assert null.current_span_id is None


def test_set_tracer_installs_and_restores():
    assert isinstance(get_tracer(), NullTracer)
    live = Tracer()
    previous = set_tracer(live)
    try:
        assert get_tracer() is live
        assert get_tracer().active
    finally:
        set_tracer(previous)
    assert isinstance(get_tracer(), NullTracer)
