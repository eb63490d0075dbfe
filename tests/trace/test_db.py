"""Tests for the SQLite trace store: schema, guards, query helpers."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.trace.db import (
    SCHEMA_VERSION,
    TRACE_DB_FILENAME,
    TraceDB,
    duration_summary,
    percentile,
)


def span(span_id, name="op", kind="span", start=0.0, duration=0.0, **attrs):
    return {
        "span_id": span_id,
        "parent_id": None,
        "name": name,
        "kind": kind,
        "start_ts": start,
        "duration_s": duration,
        "status": "ok",
        "pid": 1,
        "thread": "main",
        "attrs": attrs,
    }


# ----------------------------------------------------------------------
# The percentile convention
# ----------------------------------------------------------------------
def test_percentile_interpolates_linearly():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.95) == 7.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.50) == 2.5  # order-insensitive


def test_duration_summary_fields():
    stats = duration_summary([0.1, 0.2, 0.3, 0.4])
    assert stats["count"] == 4
    assert stats["total"] == pytest.approx(1.0)
    assert stats["mean"] == pytest.approx(0.25)
    assert stats["p50"] == pytest.approx(0.25)
    assert stats["max"] == pytest.approx(0.4)
    assert duration_summary([])["count"] == 0


# ----------------------------------------------------------------------
# Inserts and queries
# ----------------------------------------------------------------------
def test_insert_and_query_spans(tmp_path):
    with TraceDB(tmp_path / TRACE_DB_FILENAME) as db:
        db.insert_spans(
            [
                span("a-1", "wave", "wave", start=1.0, duration=0.5, suite="dsp"),
                span("a-2", "wave", "wave", start=2.0, duration=0.1, suite="h264"),
                span("a-3", "build_dfg", "stage", start=0.5, duration=0.9, hit=False),
            ]
        )
        assert db.span_count() == 3
        assert db.span_count("wave") == 2
        assert db.kind_counts() == {"stage": 1, "wave": 2}
        assert [s["span_id"] for s in db.spans()] == ["a-3", "a-1", "a-2"]  # start order
        assert [s["span_id"] for s in db.spans(kind="wave", limit=1)] == ["a-1"]
        assert db.spans()[0]["attrs"] == {"hit": False}
        assert db.get_meta("schema_version") == str(SCHEMA_VERSION)


def test_slowest_spans_and_aggregates(tmp_path):
    with TraceDB(tmp_path / "t.db") as db:
        db.insert_spans(
            [span(f"a-{i}", "stage_a", "stage", duration=0.1 * i) for i in range(1, 5)]
            + [span("b-1", "stage_b", "stage", duration=9.0)]
        )
        slow = db.slowest_spans(limit=2)
        assert [s["span_id"] for s in slow] == ["b-1", "a-4"]
        assert [s["name"] for s in db.slowest_spans(limit=9, kind="stage")][0] == "stage_b"
        aggregates = db.aggregates(kind="stage")
        assert aggregates["stage_a"]["count"] == 4
        assert aggregates["stage_a"]["p50"] == pytest.approx(0.25)
        assert aggregates["stage_b"]["max"] == pytest.approx(9.0)


def test_wave_timeline_filters_by_suite(tmp_path):
    with TraceDB(tmp_path / "t.db") as db:
        db.insert_spans(
            [
                span("a-1", "wave", "wave", start=1.0, suite="dsp", wave=0),
                span("a-2", "wave", "wave", start=2.0, suite="h264", wave=0),
                span("a-3", "wave", "wave", start=3.0, suite="dsp", wave=1),
            ]
        )
        assert [w["attrs"]["wave"] for w in db.wave_timeline("dsp")] == [0, 1]
        assert len(db.wave_timeline()) == 3


def test_counters_upsert_and_annotations(tmp_path):
    with TraceDB(tmp_path / "t.db") as db:
        db.add_counters({"wave.count": 2.0, "result.count": 5.0})
        db.add_counters({"wave.count": 1.0})
        assert db.counters() == {"result.count": 5.0, "wave.count": 3.0}
        assert db.counter("wave.count") == 3.0
        assert db.counter("missing") == 0.0
        db.insert_annotations([{"span_id": "a-1", "ts": 1.0, "message": "note", "attrs": {"k": 1}}])
        assert db.annotations("a-1")[0]["attrs"] == {"k": 1}
        assert db.annotations("other") == []


def test_insert_or_replace_dedupes_span_ids(tmp_path):
    # The id space is what makes this safe: dedupe by span_id means a
    # collision silently drops a row, which is why worker tracers must
    # persist their sequence across calls (see executor._worker_tracer).
    with TraceDB(tmp_path / "t.db") as db:
        db.insert_spans([span("a-1", duration=0.1)])
        db.insert_spans([span("a-1", duration=0.9)])
        assert db.span_count() == 1
        assert db.spans()[0]["duration_s"] == pytest.approx(0.9)


# ----------------------------------------------------------------------
# Write guards
# ----------------------------------------------------------------------
def test_readonly_requires_existing_file(tmp_path):
    with pytest.raises(TraceError, match="no trace database"):
        TraceDB(tmp_path / "missing.db", readonly=True)


def test_readonly_rejects_writes(tmp_path):
    path = tmp_path / "t.db"
    TraceDB(path).close()
    with TraceDB(path, readonly=True) as db:
        with pytest.raises(TraceError, match="read-only"):
            db.insert_spans([span("a-1")])
        with pytest.raises(TraceError, match="read-only"):
            db.add_counters({"c": 1.0})
        db.flush_wal()  # a no-op, not an error, on readonly handles


def test_foreign_pid_rejects_writes(tmp_path):
    with TraceDB(tmp_path / "t.db") as db:
        db._pid -= 1  # simulate a handle inherited across fork
        with pytest.raises(TraceError, match="single-writer"):
            db.insert_spans([span("a-1")])
        with pytest.raises(TraceError, match="open its own trace database"):
            db.add_counters({"c": 1.0})


def test_empty_batches_skip_the_write_guard(tmp_path):
    with TraceDB(tmp_path / "t.db", readonly=False) as db:
        db._pid -= 1
        assert db.insert_spans([]) == 0  # nothing to write, nothing to guard
        db.add_counters({})
        assert db.insert_annotations([]) == 0
