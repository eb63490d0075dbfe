"""Tests for JSON serialisation helpers."""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path

from repro.utils.serialization import dataclass_to_dict, from_json, to_json


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclasses.dataclass
class Inner:
    value: int
    colour: Colour


@dataclasses.dataclass
class Outer:
    name: str
    items: list
    inner: Inner
    path: Path


def make_outer() -> Outer:
    return Outer(name="x", items=[1, 2, (3, 4)], inner=Inner(5, Colour.RED), path=Path("/tmp/a"))


def test_dataclass_to_dict_recurses():
    payload = dataclass_to_dict(make_outer())
    assert payload["name"] == "x"
    assert payload["items"] == [1, 2, [3, 4]]
    assert payload["inner"] == {"value": 5, "colour": "RED"}
    assert payload["path"] == "/tmp/a"


def test_to_json_round_trips_through_json_module():
    text = to_json(make_outer())
    parsed = json.loads(text)
    assert parsed["inner"]["colour"] == "RED"


def test_from_json_inverse_of_to_json_for_plain_data():
    data = {"a": [1, 2, 3], "b": {"c": None}}
    assert from_json(to_json(data)) == data


def test_dataclass_to_dict_handles_sets():
    assert sorted(dataclass_to_dict({1, 2, 3})) == [1, 2, 3]


def test_dataclass_to_dict_passes_scalars_through():
    assert dataclass_to_dict(42) == 42
    assert dataclass_to_dict("text") == "text"
    assert dataclass_to_dict(None) is None


# ----------------------------------------------------------------------
# Round trips on full exploration outcomes (previously never exercised)
# ----------------------------------------------------------------------
def small_exploration_result():
    from repro.core.exploration import RSPDesignSpaceExplorer
    from repro.core.stalls import CriticalOpIssue, ScheduleProfile
    from repro.engine.executor import run_exploration

    issues = tuple(
        CriticalOpIssue(cycle=cycle, row=index, col=index, iteration=index,
                        has_immediate_dependent=True)
        for cycle in range(2)
        for index in range(4)
    )
    profiles = {
        "k": ScheduleProfile(kernel="k", length=8, critical_issues=issues, rows=8, cols=8)
    }
    return run_exploration(RSPDesignSpaceExplorer(profiles)).result


def test_exploration_result_round_trips_through_json():
    result = small_exploration_result()
    payload = from_json(to_json(result))
    assert payload == dataclass_to_dict(result)
    assert len(payload["evaluated"]) == len(result.evaluated)
    assert payload["base"]["architecture"]["name"] == "Base"
    selected = payload["selected"]
    assert selected["parameters"]["rows_shared"] == result.selected.parameters.rows_shared
    assert selected["area_slices"] == result.selected.area_slices
    # Stall estimates keep their per-kernel structure.
    assert set(payload["base"]["stall_estimates"]) == {"k"}
    assert (
        payload["base"]["stall_estimates"]["k"]["base_cycles"]
        == result.base.stall_estimates["k"].base_cycles
    )


def test_engine_run_stats_round_trip():
    from repro.engine.executor import EngineRunStats

    stats = EngineRunStats(chunk_size=8, total_jobs=17, evaluated=12, cache_hits=5,
                           cache_misses=12, early_rejected=0, wall_seconds=0.25)
    payload = from_json(to_json(stats))
    assert payload == dataclass_to_dict(stats)
    assert payload["chunk_size"] == 8
    assert payload["cache_hits"] == 5


def test_campaign_report_round_trip():
    from repro.engine.runner import CampaignReport, SuiteReport

    suite = SuiteReport(
        suite="dsp", kernels=["MVM", "FFT"], num_candidates=17, num_feasible=16,
        num_pareto=3, num_early_rejected=2, selected="rsp(shr=0,shc=1,stages=2)",
        selected_kind="rsp", base_area_slices=64000.0, base_execution_time_ns=5000.0,
        selected_area_slices=40000.0, selected_execution_time_ns=4200.0,
        cache_hits=10, cache_misses=7, profile_seconds=0.5, explore_seconds=0.1,
    )
    report = CampaignReport(
        campaign="nightly", suites=[suite], backend="serial", workers=1,
        chunk_size=8, early_reject=True, cache_path="/tmp/cache/evals-abc.jsonl",
        total_jobs=18, cache_hits=10, cache_misses=7, early_rejected=2,
        wall_seconds=1.5,
    )
    payload = from_json(to_json(report))
    assert payload == dataclass_to_dict(report)
    assert payload["suites"][0]["kernels"] == ["MVM", "FFT"]
    assert payload["suites"][0]["selected"] == "rsp(shr=0,shc=1,stages=2)"
