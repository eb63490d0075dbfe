"""A traced campaign end to end: the trace DB reproduces the report.

These tests prove the DB a traced campaign leaves behind is consistent
(no torn or silently replaced rows) and that its counts reproduce the
campaign report exactly, which is also what the CI trace-smoke job
checks via ``python -m repro.trace summary --json``.
"""

from __future__ import annotations

import pytest

from repro.engine.jobs import CampaignSpec
from repro.engine.runner import CampaignRunner
from repro.trace.__main__ import _summary_facts
from repro.trace.db import TRACE_DB_FILENAME, TraceDB


@pytest.fixture(scope="module")
def traced_campaign(tmp_path_factory):
    spec = CampaignSpec(
        name="traced",
        suites=("h264",),
        max_rows_shared=1,
        max_cols_shared=1,
        chunk_size=2,
    )
    trace_dir = tmp_path_factory.mktemp("trace")
    cache_dir = tmp_path_factory.mktemp("cache")
    runner = CampaignRunner(spec, cache_dir=cache_dir, trace_dir=trace_dir)
    report, results = runner.run()
    return runner, report, results, trace_dir


@pytest.fixture(scope="module")
def trace_db(traced_campaign):
    _, _, _, trace_dir = traced_campaign
    with TraceDB(trace_dir / TRACE_DB_FILENAME, readonly=True) as db:
        yield db


def test_trace_db_exists_and_report_carries_the_block(traced_campaign):
    runner, report, _, trace_dir = traced_campaign
    db_path = trace_dir / TRACE_DB_FILENAME
    assert db_path.is_file() and db_path.stat().st_size > 0
    assert report.trace["db"] == str(db_path)
    assert report.trace["spans"] > 0
    # The runner's post-run summary may only add late spans on top of the
    # report's snapshot, never lose any.
    assert runner.trace_summary["spans"] >= report.trace["spans"]


def test_span_counts_reproduce_the_report(traced_campaign, trace_db):
    _, report, _, _ = traced_campaign
    assert trace_db.span_count() == report.trace["spans"]
    assert trace_db.span_count("wave") == report.waves
    assert trace_db.counter("wave.count") == report.waves
    assert trace_db.counter("result.count") == report.total_jobs
    assert trace_db.counter("store.eval.hit") == report.cache_hits
    assert trace_db.counter("store.eval.miss") == report.cache_misses
    assert trace_db.span_count("campaign") == 1
    assert trace_db.span_count("suite") == 1
    # The base evaluation is computed in the parent before any wave is
    # dispatched, so wave results account for every job except that one.
    wave_results = sum(span["attrs"]["results"] for span in trace_db.spans(kind="wave"))
    assert wave_results == report.total_jobs - 1
    # The cold cache makes every wave compute: one eval span per wave.
    assert trace_db.span_count("eval") == report.waves
    ids = [span["span_id"] for span in trace_db.spans()]
    assert len(ids) == len(set(ids))


def test_summary_facts_match_report_counts(traced_campaign, trace_db):
    _, report, _, _ = traced_campaign
    facts = _summary_facts(trace_db)
    assert facts["campaign"] == "traced"
    assert facts["waves"] == report.waves
    assert facts["results"] == report.total_jobs
    assert facts["eval_store"]["hits"] == report.cache_hits
    assert facts["eval_store"]["misses"] == report.cache_misses
    assert sum(facts["result_sources"].values()) == report.total_jobs


def test_wave_spans_nest_under_their_suite(trace_db):
    (suite_span,) = trace_db.spans(kind="suite")
    (campaign_span,) = trace_db.spans(kind="campaign")
    assert suite_span["parent_id"] == campaign_span["span_id"]
    waves = trace_db.spans(kind="wave")
    assert waves
    assert all(span["parent_id"] == suite_span["span_id"] for span in waves)


def test_stage_spans_mirror_the_mapping_stage_stats(traced_campaign, trace_db):
    _, report, _, _ = traced_campaign
    for stage, timing in report.mapping_stages.items():
        stage_spans = [span for span in trace_db.spans(kind="stage") if span["name"] == stage]
        assert len(stage_spans) == timing["hits"] + timing["misses"]
        assert sum(1 for span in stage_spans if span["attrs"]["hit"]) == timing["hits"]
