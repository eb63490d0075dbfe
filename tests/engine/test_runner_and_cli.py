"""Tests for campaign runs and the ``python -m repro.engine`` CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.__main__ import build_parser, main
from repro.engine.jobs import CampaignSpec
from repro.engine.runner import SUMMARY_HEADERS, CampaignRunner
from repro.utils.serialization import from_json, to_json


@pytest.fixture(scope="module")
def small_spec():
    """A fast campaign: two H.264 kernels, a 1x1 sharing grid."""
    return CampaignSpec(
        name="smoke",
        suites=("h264",),
        max_rows_shared=1,
        max_cols_shared=1,
        chunk_size=2,
    )


@pytest.fixture(scope="module")
def campaign_outcome(small_spec, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("cache")
    report, results = CampaignRunner(small_spec, cache_dir=cache_dir).run()
    return report, results, cache_dir


def test_campaign_report_shape(campaign_outcome, small_spec):
    report, results, _ = campaign_outcome
    assert report.campaign == "smoke"
    assert [suite.suite for suite in report.suites] == ["h264"]
    assert set(results) == {"h264"}
    suite = report.suites[0]
    assert len(suite.kernels) == 2  # the two H.264 extension kernels
    assert suite.num_candidates == len(small_spec.candidate_grid())
    assert suite.num_feasible <= suite.num_candidates
    assert suite.num_pareto <= suite.num_feasible
    assert suite.base_area_slices > 0
    assert report.wall_seconds > 0
    assert len(report.summary_rows()[0]) == len(SUMMARY_HEADERS)


def test_campaign_exploration_results_are_complete(campaign_outcome, small_spec):
    _, results, _ = campaign_outcome
    exploration = results["h264"]
    assert len(exploration.evaluated) == len(small_spec.candidate_grid())
    assert exploration.base.architecture.name == "Base"


def test_second_campaign_run_hits_cache(small_spec, campaign_outcome):
    _, _, cache_dir = campaign_outcome
    report, _ = CampaignRunner(small_spec, cache_dir=cache_dir).run()
    assert report.cache_misses == 0
    assert report.cache_hit_rate >= 0.9


def test_report_carries_mapping_stage_timings(campaign_outcome):
    report, _, _ = campaign_outcome
    suite = report.suites[0]
    assert set(suite.mapping_stages) >= {"build_dfg", "base_schedule", "extract_profile"}
    assert suite.mapping_stages["base_schedule"]["misses"] == 2  # one per kernel
    assert suite.mapping_seconds > 0
    assert report.mapping_stages["base_schedule"]["misses"] == 2
    assert report.artifact_dir is None  # no artifact_dir configured
    assert report.artifact_hits == 0


def test_warm_artifact_store_skips_mapping(small_spec, tmp_path):
    artifact_dir = tmp_path / "store"
    cold, _ = CampaignRunner(small_spec, artifact_dir=artifact_dir).run()
    warm, _ = CampaignRunner(small_spec, artifact_dir=artifact_dir).run()

    assert cold.artifact_hits == 0
    assert cold.artifact_dir == str(artifact_dir / "artifacts")
    assert warm.artifact_hits > 0
    assert warm.artifact_misses == 0
    # The warm run fetched profiles directly; base scheduling never ran.
    assert "base_schedule" not in warm.mapping_stages
    assert warm.mapping_stages["extract_profile"]["misses"] == 0
    # Identical selections either way.
    assert [s.selected for s in warm.suites] == [s.selected for s in cold.suites]


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache-dir"])
def test_two_suite_campaign_hashes_each_context_once(monkeypatch, tmp_path, cached):
    """The runner names the evaluation cache with the context digest and
    hands it to the engine, which does not hash the profiles again.  A
    run without a cache reads no key, so it hashes nothing."""
    import repro.engine.executor as executor_module
    import repro.engine.runner as runner_module

    calls = []
    original = runner_module.evaluation_context_hash

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_module, "evaluation_context_hash", counted)
    monkeypatch.setattr(executor_module, "evaluation_context_hash", counted)
    spec = CampaignSpec(
        name="two-suites", suites=("h264", "dsp"), max_rows_shared=1, max_cols_shared=0
    )
    report, _ = CampaignRunner(spec, cache_dir=tmp_path if cached else None).run()
    assert [suite.suite for suite in report.suites] == ["h264", "dsp"]
    assert len(calls) == (2 if cached else 0)
    if cached:
        assert calls[0] != calls[1]


def test_campaign_report_serialises(campaign_outcome):
    report, _, _ = campaign_outcome
    payload = from_json(to_json(report))
    assert payload["campaign"] == "smoke"
    assert payload["suites"][0]["suite"] == "h264"
    assert payload["suites"][0]["cache_misses"] == report.suites[0].cache_misses


# ----------------------------------------------------------------------
# Two-suite campaigns on local stores
# ----------------------------------------------------------------------
def two_suite_spec(*suites):
    return CampaignSpec(
        name="two-suites",
        suites=suites,
        max_rows_shared=1,
        max_cols_shared=0,
        chunk_size=4,
    )


def _stage_counts(stages):
    return {stage: (timing["hits"], timing["misses"]) for stage, timing in stages.items()}


def test_suite_mapping_stages_add_up_to_the_campaign(tmp_path):
    """Every mapping stage is charged to the suite that ran it: the
    suites' stage counts and mapping seconds add up to the campaign's."""
    report, _ = CampaignRunner(
        two_suite_spec("paper", "h264"), cache_dir=tmp_path, artifact_dir=tmp_path
    ).run()
    summed = {}
    for suite in report.suites:
        for stage, (hits, misses) in _stage_counts(suite.mapping_stages).items():
            before = summed.get(stage, (0, 0))
            summed[stage] = (before[0] + hits, before[1] + misses)
    assert summed == _stage_counts(report.mapping_stages)
    assert sum(suite.mapping_seconds for suite in report.suites) == pytest.approx(
        report.mapping_seconds
    )


def test_two_suite_campaign_on_local_stores_starts_no_thread(tmp_path, monkeypatch):
    import threading

    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    CampaignRunner(
        two_suite_spec("h264", "paper"), cache_dir=tmp_path, artifact_dir=tmp_path
    ).run()
    assert started == []


def test_warm_two_suite_campaign_has_no_artifact_misses(tmp_path):
    """A warm campaign fetches every profile of both suites from the store."""
    spec = two_suite_spec("h264", "paper")
    CampaignRunner(spec, artifact_dir=tmp_path).run()
    warm, _ = CampaignRunner(spec, artifact_dir=tmp_path).run()
    assert warm.artifact_misses == 0
    assert warm.artifact_hits > 0


def test_warm_two_suite_campaign_builds_no_evaluator(tmp_path, monkeypatch):
    """A campaign served wholly from the evaluation cache builds no batch
    evaluator, so neither suite pays for profile tables it never reads."""
    from repro.core.batch import BatchEvaluator

    spec = two_suite_spec("h264", "dsp")
    CampaignRunner(spec, cache_dir=tmp_path).run()
    built = []
    original = BatchEvaluator.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(BatchEvaluator, "__init__", counted)
    warm, _ = CampaignRunner(spec, cache_dir=tmp_path).run()
    assert warm.cache_hit_rate == 1.0
    assert len(built) == 0


# ----------------------------------------------------------------------
# Recorded answers of the four-suite campaign
# ----------------------------------------------------------------------
#: What the four-suite campaign finds on the default grid (17 candidates,
#: stores off).  A change that moves a selection on purpose updates these
#: literals in its own diff.
RECORDED_SUITES = {
    "paper": {
        "suite": "paper",
        "kernels": [
            "Hydro", "ICCG", "Tri-diagonal", "Inner product", "State",
            "2D-FDCT", "SAD", "MVM", "FFT",
        ],
        "num_candidates": 17,
        "num_feasible": 17,
        "num_pareto": 3,
        "selected": "rsp(shr=0,shc=1,stages=2)",
        "selected_kind": "rsp",
        "base_area_slices": 58240.0,
        "base_execution_time_ns": 4758.0,
        "selected_area_slices": 36448.0,
        "selected_execution_time_ns": 3974.6,
        "area_reduction_percent": 37.417582417582416,
    },
    "h264": {
        "suite": "h264",
        "kernels": ["H264-IT4x4", "H264-QPEL"],
        "num_candidates": 17,
        "num_feasible": 17,
        "num_pareto": 5,
        "selected": "rsp(shr=0,shc=1,stages=2)",
        "selected_kind": "rsp",
        "base_area_slices": 58240.0,
        "base_execution_time_ns": 572.0,
        "selected_area_slices": 36448.0,
        "selected_execution_time_ns": 501.0,
        "area_reduction_percent": 37.417582417582416,
    },
    "livermore": {
        "suite": "livermore",
        "kernels": ["Hydro", "ICCG", "Tri-diagonal", "Inner product", "State"],
        "num_candidates": 17,
        "num_feasible": 17,
        "num_pareto": 5,
        "selected": "rsp(shr=0,shc=1,stages=2)",
        "selected_kind": "rsp",
        "base_area_slices": 58240.0,
        "base_execution_time_ns": 2002.0,
        "selected_area_slices": 36448.0,
        "selected_execution_time_ns": 1519.7,
        "area_reduction_percent": 37.417582417582416,
    },
    "dsp": {
        "suite": "dsp",
        "kernels": ["2D-FDCT", "SAD", "MVM", "FFT"],
        "num_candidates": 17,
        "num_feasible": 17,
        "num_pareto": 3,
        "selected": "rsp(shr=1,shc=0,stages=2)",
        "selected_kind": "rsp",
        "base_area_slices": 58240.0,
        "base_execution_time_ns": 2756.0,
        "selected_area_slices": 36448.0,
        "selected_execution_time_ns": 2338.0,
        "area_reduction_percent": 37.417582417582416,
    },
}


#: The three identity grids: grid options, total jobs, early-rejected jobs,
#: and each suite's candidate and feasible counts (the latter without the
#: early-rejected points).  Every grid finds what RECORDED_SUITES records
#: apart from those two counts.
IDENTITY_GRIDS = {
    "default": ({}, 68, 0, 17, dict.fromkeys(RECORDED_SUITES, 17)),
    "3x3-early-reject": (
        dict(
            max_rows_shared=3,
            max_cols_shared=3,
            stage_options=(1, 2, 3),
            early_reject=True,
            chunk_size=2,
        ),
        184,
        108,
        46,
        {"paper": 21, "h264": 19, "livermore": 13, "dsp": 23},
    ),
    "7x7": (
        dict(max_rows_shared=7, max_cols_shared=7, stage_options=(1, 2, 3, 4)),
        1012,
        0,
        253,
        dict.fromkeys(RECORDED_SUITES, 88),
    ),
}


#: Hits and misses of each mapping stage, campaign-wide and per suite, on
#: every identity grid.  Each kernel's DFG is built once per process, and
#: livermore and dsp read the profiles paper already made from the store.
RECORDED_STAGE_COUNTS = {
    "campaign": {"build_dfg": (9, 11), "base_schedule": (0, 11), "extract_profile": (9, 11)},
    "paper": {"build_dfg": (0, 9), "base_schedule": (0, 9), "extract_profile": (0, 9)},
    "h264": {"build_dfg": (0, 2), "base_schedule": (0, 2), "extract_profile": (0, 2)},
    "livermore": {"build_dfg": (5, 0), "extract_profile": (5, 0)},
    "dsp": {"build_dfg": (4, 0), "extract_profile": (4, 0)},
}


def test_four_suite_campaign_finds_the_recorded_answers():
    for grid_name, grid in IDENTITY_GRIDS.items():
        options, total_jobs, early_rejected, candidates, feasible = grid
        spec = CampaignSpec(name="recorded", suites=tuple(RECORDED_SUITES), **options)
        report, _ = CampaignRunner(spec).run()
        assert (report.total_jobs, report.early_rejected) == (total_jobs, early_rejected), grid_name
        found = {
            suite.suite: {field: getattr(suite, field) for field in RECORDED_SUITES[suite.suite]}
            for suite in report.suites
        }
        expected = {
            suite: dict(fields, num_candidates=candidates, num_feasible=feasible[suite])
            for suite, fields in RECORDED_SUITES.items()
        }
        assert found == expected, grid_name
        counts = {"campaign": _stage_counts(report.mapping_stages)}
        counts.update({suite.suite: _stage_counts(suite.mapping_stages) for suite in report.suites})
        assert counts == RECORDED_STAGE_COUNTS, grid_name


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_parser_defaults():
    args = build_parser().parse_args([])
    assert args.suites is None
    assert args.backend == "serial"
    assert args.workers == 1
    # The streaming mode and its resume flag are gone.
    assert not hasattr(args, "stream")
    assert not hasattr(args, "resume")
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["--stream", "stream-dir"])
    assert exit_info.value.code == 2


def test_cli_accepts_only_the_serial_backend(capsys):
    argv = ["--suite", "h264", "--max-rows-shared", "1", "--max-cols-shared", "1",
            "--no-cache", "--no-artifact-cache", "--quiet"]
    assert main(argv + ["--workers", "1", "--backend", "serial"]) == 0
    for removed in (["--backend", "thread"], ["--workers", "2"]):
        assert main(argv + removed) == 2
        assert "parallel evaluation backends were removed" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["repro.engine.__main__", "repro.flow"])
def test_entry_points_skip_unused_modules(module):
    """numpy never loads (the library needs no third-party package), no
    process pool is left, no HTTP client (stores are local directories)
    and no sqlite3 (the campaign report is the one record of a run)."""
    code = (
        f"import sys, {module}; "
        "print([name for name in ('numpy', 'multiprocessing', 'http.client', 'sqlite3') "
        "if name in sys.modules])"
    )
    source_root = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(source_root)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"


def test_cli_runs_campaign_and_writes_report(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    output = tmp_path / "report.json"
    argv = [
        "--suite", "h264",
        "--max-rows-shared", "1",
        "--max-cols-shared", "1",
        "--cache-dir", str(cache_dir),
        "--output", str(output),
    ]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "h264" in printed
    assert output.exists()
    payload = json.loads(output.read_text())
    assert payload["report"]["campaign"] == "campaign"
    assert payload["suite_selections"]["h264"]["selected"] is not None

    # Second identical invocation: served from the cache.
    assert main(argv) == 0
    payload = json.loads(output.read_text())
    assert payload["cache_hit_rate"] >= 0.9


def test_cli_reports_domain_errors_cleanly(capsys):
    assert main(["--suite", "h264", "--workers", "0", "--no-cache", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert "error: the parallel evaluation backends were removed" in captured.err
    assert main(["--suite", "h264", "--stages", "0", "--no-cache", "--quiet"]) == 2
    assert "invalid pipeline stage count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bound",
    [
        ["--max-execution-time-ratio", "-1"],
        ["--max-execution-time-ratio", "nan"],
        ["--max-stall-cycles", "-5"],
    ],
    ids=["negative-ratio", "nan-ratio", "negative-stalls"],
)
def test_cli_rejects_negative_or_nan_constraints(tmp_path, capsys, bound):
    """A bound no design can meet, or one that checks nothing, fails
    before any mapping: exit 2 and no report."""
    output = tmp_path / "report.json"
    argv = ["--suite", "h264", "--no-cache", "--no-artifact-cache", "--quiet",
            "--output", str(output)]
    assert main(argv + bound) == 2
    assert "must be a non-negative number" in capsys.readouterr().err
    assert not output.exists()


def test_cli_no_cache_and_quiet(tmp_path, capsys):
    argv = [
        "--suite", "h264",
        "--max-rows-shared", "1",
        "--max-cols-shared", "0",
        "--no-cache",
        "--quiet",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""


def test_cli_artifact_dir_warm_run_reports_hits(tmp_path, capsys):
    artifact_dir = tmp_path / "store"
    output = tmp_path / "report.json"
    argv = [
        "--suite", "h264",
        "--max-rows-shared", "1",
        "--max-cols-shared", "0",
        "--no-cache",
        "--artifact-dir", str(artifact_dir),
        "--output", str(output),
    ]
    assert main(argv) == 0
    cold = json.loads(output.read_text())["report"]
    assert cold["artifact_hits"] == 0
    assert cold["mapping_stages"]["base_schedule"]["misses"] == 2
    assert "artifacts:" in capsys.readouterr().out

    assert main(argv) == 0
    warm = json.loads(output.read_text())["report"]
    assert warm["artifact_hits"] > 0
    assert "base_schedule" not in warm["mapping_stages"]
    assert warm["artifact_dir"] == str(artifact_dir / "artifacts")


def test_cli_no_artifact_cache_disables_the_store(tmp_path):
    output = tmp_path / "report.json"
    argv = [
        "--suite", "h264",
        "--max-rows-shared", "1",
        "--max-cols-shared", "0",
        "--cache-dir", str(tmp_path / "cache"),
        "--no-artifact-cache",
        "--quiet",
        "--output", str(output),
    ]
    assert main(argv) == 0
    assert main(argv) == 0  # second run: evaluation cache warm, artifacts off
    payload = json.loads(output.read_text())["report"]
    assert payload["artifact_dir"] is None
    assert payload["artifact_hits"] == 0
    assert payload["mapping_stages"]["base_schedule"]["misses"] == 2


def test_cli_artifact_dir_defaults_to_cache_dir(tmp_path):
    cache_dir = tmp_path / "cache"
    output = tmp_path / "report.json"
    argv = [
        "--suite", "h264",
        "--max-rows-shared", "1",
        "--max-cols-shared", "0",
        "--cache-dir", str(cache_dir),
        "--quiet",
        "--output", str(output),
    ]
    assert main(argv) == 0
    payload = json.loads(output.read_text())
    assert payload["report"]["artifact_dir"] == str(cache_dir / "artifacts")
    assert (cache_dir / "artifacts" / "base_schedule").is_dir()


# ----------------------------------------------------------------------
# Batch path through the runner and the CLI
# ----------------------------------------------------------------------
def test_runner_batch_matches_scalar_oracle(small_spec, scalar_evaluation):
    batched, batched_results = CampaignRunner(small_spec).run()
    with scalar_evaluation():
        scalar, scalar_results = CampaignRunner(small_spec).run()
    # The batch path changes throughput, never results: the exploration
    # outcomes serialise byte-identically.
    assert to_json(batched_results["h264"]) == to_json(scalar_results["h264"])
    assert batched.suites[0].selected == scalar.suites[0].selected


def test_cli_no_batch_matches_default_report(tmp_path, capsys, scalar_evaluation):
    base_args = [
        "--suite", "h264", "--max-rows-shared", "1", "--max-cols-shared", "1",
        "--no-cache", "--no-artifact-cache", "--quiet",
    ]
    fast = tmp_path / "fast.json"
    slow = tmp_path / "slow.json"
    assert main(base_args + ["--output", str(fast)]) == 0
    with scalar_evaluation():
        assert main(base_args + ["--output", str(slow)]) == 0
    capsys.readouterr()
    fast_payload = json.loads(fast.read_text())
    slow_payload = json.loads(slow.read_text())
    assert fast_payload["suite_selections"] == slow_payload["suite_selections"]
    for key in ("total_jobs", "cache_hits", "early_rejected", "waves"):
        assert fast_payload["report"][key] == slow_payload["report"][key]
