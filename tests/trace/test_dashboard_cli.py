"""Tests for the ``python -m repro.trace`` dashboard CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.trace.__main__ import build_parser, main
from repro.trace.collect import TraceCollector
from repro.trace.db import TRACE_DB_FILENAME


@pytest.fixture()
def traced_dir(tmp_path):
    """A small hand-traced run: one wave, stages, counters."""
    with TraceCollector(tmp_path, campaign="cli-smoke") as collector:
        tracer = collector.tracer
        with tracer.span("cli-smoke", kind="campaign", suites=1):
            with tracer.span("wave", kind="wave", suite="dsp", wave=0, jobs=2) as wave:
                wave.set("results", 2).set("rejected", 0).set("frontier_size", 1)
            tracer.record_span("build_dfg", kind="stage", duration_s=0.010, hit=False)
            tracer.record_span("build_dfg", kind="stage", duration_s=0.001, hit=True)
            tracer.record_span("base_schedule", kind="stage", duration_s=0.200, hit=False)
        tracer.counter("wave.count")
        tracer.counter("result.count", 2.0)
        tracer.counter("result.source.computed", 2.0)
        tracer.counter("result.feasible", 2.0)
        tracer.counter("frontier.updates", 1.0)
        tracer.counter("store.eval.hit", 3.0)
        tracer.counter("store.eval.miss", 1.0)
    return tmp_path


def test_parser_requires_a_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    capsys.readouterr()


def test_summary_renders_counts_and_stage_table(traced_dir, capsys):
    assert main(["summary", str(traced_dir)]) == 0
    out = capsys.readouterr().out
    assert "campaign 'cli-smoke'" in out
    assert "waves: 1" in out
    assert "results: 2 (2 computed)" in out
    assert "frontier: 1 update(s)" in out
    assert "evals 3h/1m (75.0%)" in out
    assert "build_dfg" in out and "base_schedule" in out


def test_summary_json_reproduces_db_counts(traced_dir, capsys):
    assert main(["summary", str(traced_dir), "--json"]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert facts["campaign"] == "cli-smoke"
    assert facts["spans"] == 5
    assert facts["kinds"] == {"campaign": 1, "stage": 3, "wave": 1}
    assert facts["waves"] == 1
    assert facts["wave_spans"] == 1
    assert facts["results"] == 2
    assert facts["result_sources"] == {"computed": 2}
    assert facts["frontier_sizes"] == [1]
    assert facts["eval_store"] == {"hits": 3, "misses": 1, "stores": 0}


def test_tail_and_slow_render_span_tables(traced_dir, capsys):
    assert main(["tail", str(traced_dir), "-n", "2"]) == 0
    tail = capsys.readouterr().out
    assert tail.count("\n") >= 3  # header + two span rows

    assert main(["slow", str(traced_dir), "--kind", "stage", "-n", "1"]) == 0
    slow = capsys.readouterr().out
    assert "base_schedule" in slow  # the 200ms stage dominates
    assert "build_dfg" not in slow


def test_stages_table_splits_hits_and_misses(traced_dir, capsys):
    assert main(["stages", str(traced_dir)]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("build_dfg")]
    assert len(lines) == 1
    columns = lines[0].split()
    assert columns[1:4] == ["2", "1", "1"]  # n, hits, misses


def test_export_writes_the_full_document(traced_dir, tmp_path, capsys):
    output = tmp_path / "out" / "trace.json"
    output.parent.mkdir()
    assert main(["export", str(traced_dir), "--output", str(output)]) == 0
    assert "exported 5 span(s)" in capsys.readouterr().out
    document = json.loads(output.read_text())
    assert document["campaign"] == "cli-smoke"
    assert len(document["spans"]) == 5
    assert document["counters"]["result.count"] == 2.0

    assert main(["export", str(traced_dir / TRACE_DB_FILENAME)]) == 0
    stdout_document = json.loads(capsys.readouterr().out)
    assert stdout_document["spans"] == document["spans"]


@pytest.mark.parametrize("command", ["summary", "stages", "export"])
def test_a_closed_pipe_exits_1_without_a_traceback(traced_dir, command):
    """Piped into a reader that has already gone (``| head``), a command
    exits 1 quietly instead of printing a ``BrokenPipeError``."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro.trace", command, str(traced_dir)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])),
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr


def test_missing_target_exits_2(tmp_path, capsys):
    assert main(["summary", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_db_renders_placeholders(tmp_path, capsys):
    TraceCollector(tmp_path).close()
    assert main(["tail", str(tmp_path)]) == 0
    assert "no spans" in capsys.readouterr().out
    assert main(["slow", str(tmp_path)]) == 0
    assert "no spans" in capsys.readouterr().out
    assert main(["stages", str(tmp_path)]) == 0
    assert "no stage spans" in capsys.readouterr().out
