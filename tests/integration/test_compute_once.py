"""Each fact is computed once per process.

A campaign prices each design once, whatever the number of suites, and
builds one stall table per distinct profile.  Pipelines that share an
artifact store share one DFG, one re-timing plan and one stall-free
length per kernel.  None of this moves an answer or a store counter.
"""

from __future__ import annotations

import repro.flowgraph.mapping as mapping_nodes
from repro.core.cost_model import HardwareCostModel
from repro.core.stalls import _ProfileTable
from repro.engine.artifacts import ArtifactStore
from repro.engine.jobs import CampaignSpec
from repro.engine.runner import CampaignRunner
from repro.flow import run_rsp_flow
from repro.ir.loops import Kernel
from repro.kernels import paper_suite
from repro.mapping import RSPMapper
from repro.utils.serialization import from_json, to_json

#: Report fields two runs of one campaign differ in.
_TIMINGS = ("wall_seconds", "mapping_seconds", "profile_seconds", "explore_seconds")


def _without_timings(report):
    payload = from_json(to_json(report))
    for block in [payload] + payload["suites"]:
        for name in _TIMINGS:
            block.pop(name, None)
        for stage in block["mapping_stages"].values():
            for name in ("seconds", "p50", "p95"):
                stage.pop(name, None)
    return payload


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_two_suite_campaign_prices_each_design_once(monkeypatch):
    """17 candidates and two suites: 16 designs priced once each, plus
    each suite's base point through the scalar oracle.  Pricing per suite
    made 34 calls."""
    areas = _count_calls(monkeypatch, HardwareCostModel, "array_area")
    spec = CampaignSpec(name="paper+h264", suites=("paper", "h264"))
    report, _ = CampaignRunner(spec).run()
    assert report.total_jobs == 34
    assert len(areas) == 18


def test_four_suite_wide_grid_builds_one_table_per_profile(monkeypatch, scalar_evaluation):
    """The 253-point grid over four suites: 11 distinct kernels, so 11
    DFGs and 11 profile tables (one table per suite and kernel made 20),
    and the same report as the scalar oracle's."""
    spec = CampaignSpec(
        name="wide",
        suites=("paper", "h264", "livermore", "dsp"),
        max_rows_shared=7,
        max_cols_shared=7,
        stage_options=(1, 2, 3, 4),
    )
    with scalar_evaluation():
        scalar, _ = CampaignRunner(spec).run()
    tables = _count_calls(monkeypatch, _ProfileTable, "__init__")
    builds = _count_calls(monkeypatch, Kernel, "build")
    report, _ = CampaignRunner(spec).run()
    assert report.total_jobs == 1012
    assert len(tables) == 11
    assert len(builds) == 11
    assert _without_timings(report) == _without_timings(scalar)


def test_flow_then_mapper_on_one_store_builds_each_dfg_once(monkeypatch):
    """``run_rsp_flow(..., artifact_store=store)`` then ``RSPMapper(store=store)``
    over the 16 non-base designs: 9 DFG builds and 162 rearrangement
    passes (memos per pipeline made 18 and 171), a fresh mapper's results,
    and the store counters those per-pipeline memos gave."""
    builds = _count_calls(monkeypatch, Kernel, "build")
    passes = _count_calls(monkeypatch, mapping_nodes, "rearrange_schedule")
    store = ArtifactStore()
    kernels = paper_suite()
    outcome = run_rsp_flow(kernels, artifact_store=store)
    mapper = RSPMapper(store=store)
    designs = [d.architecture for d in outcome.exploration.evaluated if d.parameters.kind != "base"]
    assert len(designs) == 16
    results = {
        (design.name, kernel.name): mapper.map_kernel(kernel, design)
        for design in designs
        for kernel in kernels
    }
    assert len(builds) == 9
    assert len(passes) == 162
    stats = store.stats
    assert (stats.hits, stats.misses, stats.stores, stats.corrupt, len(store)) == (
        171,
        162,
        162,
        0,
        162,
    )
    assert stats.by_stage == {
        "base_schedule": {"hits": 162, "misses": 9, "stores": 9},
        "extract_profile": {"hits": 0, "misses": 9, "stores": 9},
        "rearrange": {"hits": 9, "misses": 144, "stores": 144},
    }

    def entries(schedule):
        return [
            (e.operation, e.cycle, e.row, e.col, e.latency, e.occupancy, e.shared_unit)
            for e in schedule.entries_by_name().values()
        ]

    fresh = RSPMapper()
    for design in designs:
        for kernel in kernels:
            got = results[(design.name, kernel.name)]
            expected = fresh.map_kernel(kernel, design)
            assert (got.cycles, got.stall_cycles) == (expected.cycles, expected.stall_cycles)
            assert entries(got.schedule) == entries(expected.schedule), (design.name, kernel.name)
