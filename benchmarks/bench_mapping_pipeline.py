"""Benchmark: staged mapping pipeline — cold vs. warm artifact store.

Runs the paper-suite campaign twice against the same artifact store and
compares the per-stage mapping timings from the campaign report (the same
numbers ``python -m repro.engine`` emits in its JSON report):

* the cold run computes every base schedule and profile and persists them,
* the warm run fetches the profiles by content hash — the scheduling
  stages must not execute at all and the mapping stages as a whole must
  be at least 3x faster,
* the flow outputs must be seed-identical either way (same selections,
  same cycle counts).

It also times the one stage a warm store cannot skip: building and
fingerprinting every kernel DFG, which every campaign process pays before
its first store hit.
"""

from __future__ import annotations

import time

import pytest

from repro.engine.artifacts import ArtifactStore
from repro.engine.jobs import CampaignSpec
from repro.engine.runner import CampaignRunner
from repro.flow import run_rsp_flow
from repro.kernels import paper_suite
from repro.kernels.h264 import h264_kernels
from repro.mapping.fingerprints import dfg_fingerprint
from repro.utils.serialization import json_hash
from repro.utils.tabulate import format_table

#: Stages whose work a warm store must eliminate ("mapping stages": the
#: scheduling and profiling work, as opposed to the DFG rebuild that
#: anchors the content hashes).
MAPPING_STAGES = ("base_schedule", "extract_profile", "rearrange", "generate_context")


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec(name="pipeline-bench", suites=("paper",))


def mapping_stage_seconds(report) -> float:
    return sum(
        timing["seconds"]
        for stage, timing in report.mapping_stages.items()
        if stage in MAPPING_STAGES
    )


def test_warm_artifact_store_speeds_up_mapping_3x(spec, tmp_path):
    artifact_dir = tmp_path / "store"
    cold, cold_results = CampaignRunner(spec, artifact_dir=artifact_dir).run()
    warm, warm_results = CampaignRunner(spec, artifact_dir=artifact_dir).run()

    rows = []
    for label, report in (("cold", cold), ("warm", warm)):
        for stage, timing in report.mapping_stages.items():
            rows.append(
                [label, stage, timing["hits"], timing["misses"], round(timing["seconds"], 4)]
            )
    print()
    print(
        format_table(
            rows,
            headers=["run", "stage", "hits", "misses", "seconds"],
            title="mapping pipeline: cold vs. warm artifact store (paper suite)",
        )
    )

    cold_mapping = mapping_stage_seconds(cold)
    warm_mapping = mapping_stage_seconds(warm)
    speedup = cold_mapping / warm_mapping if warm_mapping else float("inf")
    print(
        f"mapping stages: cold {cold_mapping:.3f}s -> warm {warm_mapping:.3f}s "
        f"({speedup:.1f}x), warm artifact hits {warm.artifact_hits}"
    )

    # The warm run is served from the store: profiles fetched, scheduling
    # stages never executed.
    assert warm.artifact_hits > 0
    assert warm.artifact_misses == 0
    assert "base_schedule" not in warm.mapping_stages
    assert warm.mapping_stages["extract_profile"]["misses"] == 0

    # Identical exploration outcomes.
    assert [s.selected for s in warm.suites] == [s.selected for s in cold.suites]
    cold_front = [e.parameters for e in cold_results["paper"].pareto]
    warm_front = [e.parameters for e in warm_results["paper"].pareto]
    assert warm_front == cold_front

    # The headline claim: >= 3x on the mapping stages (observed ~20x; the
    # margin absorbs slow CI machines).
    assert warm_mapping * 3 <= cold_mapping


def test_flow_output_is_identical_with_and_without_artifact_store(tmp_path):
    kernels = paper_suite()
    plain = run_rsp_flow(kernels)

    store_dir = tmp_path / "flow-store"
    cold = run_rsp_flow(kernels, artifact_store=ArtifactStore(store_dir))
    warm = run_rsp_flow(kernels, artifact_store=ArtifactStore(store_dir))

    for outcome in (cold, warm):
        assert outcome.selected_name == plain.selected_name
        assert outcome.total_base_cycles() == plain.total_base_cycles()
        assert outcome.total_selected_cycles() == plain.total_selected_cycles()
        assert outcome.profiles == plain.profiles
        assert {
            name: (result.cycles, result.stall_cycles)
            for name, result in outcome.rsp_mappings.items()
        } == {
            name: (result.cycles, result.stall_cycles)
            for name, result in plain.rsp_mappings.items()
        }


def test_dfg_build_and_fingerprint_cost(bench_metrics):
    """Build and fingerprint the 11 paper and h264 DFGs, fastest of 7 rounds.

    The fingerprint writes the DFG's canonical JSON directly; its oracle,
    ``json_hash(dfg.to_dict())``, builds the dicts and sorts their keys.
    Both are timed in every round, so a busy host slows them alike.
    """
    kernels = paper_suite() + h264_kernels()
    rounds = {"build_dfg_s": [], "fingerprint_s": [], "oracle_fingerprint_s": []}
    for _ in range(7):
        started = time.perf_counter()
        dfgs = [kernel.build() for kernel in kernels]
        built = time.perf_counter()
        digests = [dfg_fingerprint(dfg) for dfg in dfgs]
        fingerprinted = time.perf_counter()
        oracle = [json_hash(dfg.to_dict()) for dfg in dfgs]
        finished = time.perf_counter()
        assert digests == oracle
        rounds["build_dfg_s"].append(built - started)
        rounds["fingerprint_s"].append(fingerprinted - built)
        rounds["oracle_fingerprint_s"].append(finished - fingerprinted)
    best = {name: min(seconds) for name, seconds in rounds.items()}
    bench_metrics.update({name: round(seconds, 6) for name, seconds in best.items()})
    bench_metrics["operations"] = sum(len(dfg) for dfg in dfgs)
    speedup = best["oracle_fingerprint_s"] / best["fingerprint_s"]
    print(
        f"\n{len(dfgs)} DFGs, {bench_metrics['operations']} operations: build "
        f"{best['build_dfg_s'] * 1e3:.1f} ms, fingerprint {best['fingerprint_s'] * 1e3:.1f} ms, "
        f"oracle {best['oracle_fingerprint_s'] * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    # ~2x measured on a shared 2-vCPU host; the margin absorbs noise.
    assert speedup >= 1.3
