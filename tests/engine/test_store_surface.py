"""CLI and report coverage for the storage layer.

The ``--gc-max-age`` / ``--compact`` flags, the ``store_stats`` block of
the JSON report, and sharing a store through one directory: a cold run
in one working directory seeds a warm run in another at a 100%
evaluation hit rate with nonzero artifact hits.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.__main__ import build_parser, main
from repro.engine.jobs import CampaignSpec
from repro.engine.runner import CampaignRunner

BASE_ARGS = [
    "--suite", "h264",
    "--max-rows-shared", "1",
    "--max-cols-shared", "0",
]


@pytest.fixture(scope="module")
def small_spec():
    return CampaignSpec(
        name="store-smoke",
        suites=("h264",),
        max_rows_shared=1,
        max_cols_shared=0,
    )


def run_cli(tmp_path, *extra):
    output = tmp_path / "report.json"
    argv = BASE_ARGS + [
        "--cache-dir", str(tmp_path / "cache"),
        "--artifact-dir", str(tmp_path / "cache"),
        "--quiet",
        "--output", str(output),
        *extra,
    ]
    assert main(argv) == 0
    return json.loads(output.read_text())


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
def test_cli_parser_store_defaults():
    args = build_parser().parse_args([])
    for removed in ("store_shards", "store_url", "store_tier"):
        assert not hasattr(args, removed)
    assert args.gc_max_age is None
    assert args.compact is False


def test_cli_rejects_a_negative_gc_max_age_before_any_mapping(tmp_path, capsys):
    with pytest.raises(SystemExit) as outcome:
        main(["--suite", "dsp", "--cache-dir", str(tmp_path / "cache"), "--gc-max-age", "-3"])
    assert outcome.value.code == 2
    assert "error: argument --gc-max-age" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()  # nothing was mapped or stored


def test_runner_rejects_a_negative_gc_max_age_before_any_work(small_spec, tmp_path):
    with pytest.raises(ValueError, match="gc_max_age must be non-negative"):
        CampaignRunner(
            small_spec,
            cache_dir=tmp_path / "cache",
            artifact_dir=tmp_path / "cache",
            gc_max_age=-3.0,
        )
    assert not (tmp_path / "cache").exists()


def test_store_stats_block_in_the_json_report(tmp_path):
    payload = run_cli(tmp_path)
    stats = payload["report"]["store_stats"]
    assert "shards" not in stats
    assert "shards" not in stats["artifacts"]
    for removed in ("store_url", "remote", "tier", "dropped_writes"):
        assert removed not in stats
    assert stats["artifacts"]["backend"] == "pickle"
    assert stats["artifacts"]["entries"] > 0
    assert stats["artifacts"]["disk_bytes"] > 0
    assert stats["evaluations"][0]["backend"] == "jsonl"
    assert stats["evaluations"][0]["stores"] > 0
    assert stats["janitor"] is None  # neither --compact nor --gc-max-age


def test_compact_and_gc_flags_populate_the_janitor_block(tmp_path):
    run_cli(tmp_path)
    payload = run_cli(tmp_path, "--compact", "--gc-max-age", "86400")
    janitor = payload["report"]["store_stats"]["janitor"]
    assert janitor["compacted"] is True
    assert janitor["gc_max_age"] == 86400
    assert janitor["artifacts"]["evicted"] == 0  # everything is fresh
    assert janitor["artifacts"]["compaction"]["entries_kept"] > 0
    assert janitor["evaluations"][0]["compaction"]["entries_kept"] > 0

    # The campaign after compaction + GC still runs fully warm.
    warm = run_cli(tmp_path)
    assert warm["cache_hit_rate"] == 1.0
    assert warm["report"]["artifact_misses"] == 0


def test_gc_evicts_a_stale_store(tmp_path):
    run_cli(tmp_path)
    # A max age of zero seconds declares every existing entry stale.
    payload = run_cli(tmp_path, "--gc-max-age", "0", "--compact")
    janitor = payload["report"]["store_stats"]["janitor"]
    evicted = janitor["artifacts"]["evicted"] + janitor["evaluations"][0]["evicted"]
    assert evicted > 0


# ----------------------------------------------------------------------
# Runner API
# ----------------------------------------------------------------------
def test_runner_accepts_store_options(small_spec, tmp_path):
    cold, _ = CampaignRunner(
        small_spec,
        cache_dir=tmp_path,
        artifact_dir=tmp_path,
        gc_max_age=86400.0,
        compact=True,
    ).run()
    assert cold.store_stats["janitor"] is not None

    warm, _ = CampaignRunner(small_spec, cache_dir=tmp_path, artifact_dir=tmp_path).run()
    assert warm.cache_misses == 0
    assert warm.artifact_misses == 0
    assert warm.store_stats["janitor"] is None


def test_memory_only_runner_reports_memory_store(small_spec):
    report, _ = CampaignRunner(small_spec).run()
    assert report.store_stats["artifacts"].backend == "memory"
    assert report.store_stats["evaluations"] == []


# ----------------------------------------------------------------------
# Store paths thread through the flow and the pipeline
# ----------------------------------------------------------------------
def test_flow_accepts_a_store_path(tmp_path):
    from repro.flow import run_rsp_flow
    from repro.kernels import h264_kernels

    kernels = h264_kernels()[:1]
    cold = run_rsp_flow(kernels, artifact_store=tmp_path / "store")
    assert (tmp_path / "store" / "artifacts" / "base_schedule").is_dir()

    warm = run_rsp_flow(kernels, artifact_store=tmp_path / "store")
    assert warm.selected_name == cold.selected_name
    assert warm.total_selected_cycles() == cold.total_selected_cycles()


def test_pipeline_accepts_a_store_path(tmp_path):
    from repro.kernels import get_kernel
    from repro.mapping.pipeline import MappingPipeline

    pipeline = MappingPipeline(store=tmp_path / "store")
    assert pipeline.store.directory == tmp_path / "store" / "artifacts"
    pipeline.profile_artifact(get_kernel("MVM"))
    assert pipeline.store.store_stats().entries > 0

    warm = MappingPipeline(store=tmp_path / "store")
    warm.profile_artifact(get_kernel("MVM"))
    assert warm.stats.timing("extract_profile").hits == 1


# ----------------------------------------------------------------------
# One directory shared by processes in different working directories
# ----------------------------------------------------------------------
def test_cold_run_seeds_a_shared_directory_for_a_warm_run_elsewhere(
    tmp_path, monkeypatch
):
    shared = tmp_path / "shared"
    reports = {}
    for worker in ("worker-a", "worker-b"):
        directory = tmp_path / worker
        directory.mkdir()
        monkeypatch.chdir(directory)
        output = tmp_path / f"{worker}.json"
        argv = BASE_ARGS + [
            "--cache-dir", "../shared", "--quiet", "--output", str(output),
        ]
        assert main(argv) == 0
        reports[worker] = json.loads(output.read_text())
        # Every record went to the shared directory, none to the worker's.
        assert list(directory.iterdir()) == []

    assert reports["worker-a"]["cache_hit_rate"] == 0.0
    warm = reports["worker-b"]
    assert warm["cache_hit_rate"] == 1.0
    assert warm["report"]["artifact_hits"] > 0
    assert warm["report"]["artifact_misses"] == 0
    assert list(shared.glob("evals-*.jsonl"))
