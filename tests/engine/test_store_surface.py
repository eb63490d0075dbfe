"""CLI and report coverage for the storage layer.

The ``--gc-max-age`` / ``--compact`` flags, the ``store_stats`` block of
the JSON report, and the shared-store-service surface (``--store-url`` /
``--store-tier``):
a server seeded by a cold run in one working directory serves a warm run
in another at a 100% evaluation hit rate with nonzero artifact hits.
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
    assert not hasattr(args, "store_shards")
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
# Shared store service (--store-url / --store-tier)
# ----------------------------------------------------------------------
@pytest.fixture()
def live_server(tmp_path_factory):
    from repro.service import StoreServer
    from repro.store import PickleDirBackend

    root = tmp_path_factory.mktemp("service-store")
    with StoreServer(PickleDirBackend(root)) as server:
        yield server


def run_cli_remote(tmp_path, url, *extra):
    output = tmp_path / "report.json"
    argv = BASE_ARGS + ["--store-url", url, "--quiet", "--output", str(output), *extra]
    assert main(argv) == 0
    return json.loads(output.read_text())


def test_cli_store_url_flag_validation(capsys):
    assert main(BASE_ARGS + ["--store-tier", "--quiet"]) == 2
    assert "--store-url" in capsys.readouterr().err
    assert main(BASE_ARGS + ["--store-url", "http://127.0.0.1:1", "--no-cache"]) == 2
    assert "replaces the local stores" in capsys.readouterr().err


def test_runner_store_url_conflicts(small_spec, tmp_path):
    with pytest.raises(ValueError, match="replaces the local stores"):
        CampaignRunner(small_spec, cache_dir=tmp_path, store_url="http://127.0.0.1:1")
    with pytest.raises(ValueError, match="needs store_url"):
        CampaignRunner(small_spec, store_tier=True)


def test_cold_run_seeds_the_service_for_a_warm_run_elsewhere(
    live_server, tmp_path_factory
):
    """The acceptance criterion: different working directories, one store."""
    cold_dir = tmp_path_factory.mktemp("worker-a")
    warm_dir = tmp_path_factory.mktemp("worker-b")

    cold = run_cli_remote(cold_dir, live_server.url)
    assert cold["cache_hit_rate"] == 0.0
    assert cold["report"]["store_stats"]["store_url"] == live_server.url
    assert cold["report"]["store_stats"]["remote"]["requests"] > 0
    # Nothing landed in either working directory: the service owns the data.
    assert not list(cold_dir.glob("**/*.jsonl"))
    assert not list(cold_dir.glob("**/artifacts"))

    warm = run_cli_remote(warm_dir, live_server.url)
    assert warm["cache_hit_rate"] == 1.0
    assert warm["report"]["cache_misses"] == 0
    assert warm["report"]["artifact_hits"] > 0
    assert warm["report"]["artifact_misses"] == 0


def test_store_tier_reports_front_and_flush_counters(live_server, tmp_path):
    payload = run_cli_remote(tmp_path, live_server.url, "--store-tier")
    stats = payload["report"]["store_stats"]
    tier = stats["tier"]
    assert tier["flushed_records"] > 0
    assert tier["pending"] == 0  # the runner settles the queue pre-report
    assert tier["front_hits"] + tier["front_misses"] > 0
    assert stats["remote"]["dropped_puts"] == 0

    # A tiered rerun in the same process of the CLI is still fully warm.
    warm = run_cli_remote(tmp_path, live_server.url, "--store-tier")
    assert warm["cache_hit_rate"] == 1.0


def test_remote_janitor_block_and_gc(live_server, tmp_path):
    run_cli_remote(tmp_path, live_server.url)
    payload = run_cli_remote(tmp_path, live_server.url, "--compact", "--gc-max-age", "86400")
    janitor = payload["report"]["store_stats"]["janitor"]
    assert janitor["compacted"] is True
    assert janitor["remote"]["scanned"] > 0
    assert janitor["remote"]["evicted"] == 0  # everything is fresh

    evict = run_cli_remote(tmp_path, live_server.url, "--gc-max-age", "0")
    assert evict["report"]["store_stats"]["janitor"]["remote"]["evicted"] > 0


def test_runner_with_unreachable_service_still_completes(small_spec):
    """Degraded mode: no server, the campaign recomputes and succeeds —
    and the writes it dropped are surfaced, not silently counted away."""
    runner = CampaignRunner(small_spec, store_url="http://127.0.0.1:9")
    runner._remote.retries = 0
    runner._remote.backoff = 0.0
    try:
        with pytest.warns(RuntimeWarning, match=r"store write\(s\) were dropped"):
            report, results = runner.run()
    finally:
        runner.close()
    assert report.cache_hits == 0
    assert results["h264"].selected is not None
    assert report.store_stats["remote"]["offline_trips"] >= 1
    # The degraded run dropped every evaluation/artifact write; the count
    # is a first-class report field and feeds the CLI store: line.
    assert report.store_stats["dropped_writes"] > 0
    assert (
        report.store_stats["dropped_writes"]
        == report.store_stats["remote"]["dropped_puts"]
    )


def test_flow_accepts_a_store_url(live_server):
    from repro.flow import run_rsp_flow
    from repro.kernels import h264_kernels

    kernels = h264_kernels()[:1]
    cold = run_rsp_flow(kernels, store_url=live_server.url)
    assert live_server.service.backend.stats().entries > 0

    warm = run_rsp_flow(kernels, store_url=live_server.url, store_tier=True)
    assert warm.selected_name == cold.selected_name
    assert warm.total_selected_cycles() == cold.total_selected_cycles()

    with pytest.raises(Exception, match="either artifact_store or store_url"):
        run_rsp_flow(kernels, artifact_store="somewhere", store_url=live_server.url)


def test_tiered_flow_closes_its_remote_connections(live_server, monkeypatch):
    """Closing the tier the flow opened also closes the remote under it."""
    from repro.flow import run_rsp_flow
    from repro.kernels import h264_kernels
    from repro.store import RemoteBackend

    closed = []
    close = RemoteBackend.close

    def recording_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(RemoteBackend, "close", recording_close)
    run_rsp_flow(h264_kernels()[:1], store_url=live_server.url, store_tier=True)
    assert len(closed) == 1
