"""Tests for the streaming campaign mode: events, checkpoints, resume."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.engine.jobs import CampaignSpec
from repro.engine.runner import CampaignRunner
from repro.engine.stream import (
    EVENT_TYPES,
    CampaignStreamController,
    EventLog,
    replay_events,
    write_stream_report,
)
from repro.errors import ExplorationError


@pytest.fixture(scope="module")
def small_spec():
    """A fast streamed campaign: two H.264 kernels, three waves."""
    return CampaignSpec(
        name="stream-smoke",
        suites=("h264",),
        max_rows_shared=1,
        max_cols_shared=1,
        chunk_size=2,
    )


def run_streamed(spec, tmp, tag, resume=False):
    runner = CampaignRunner(
        spec,
        cache_dir=tmp / f"cache-{tag}",
        stream_dir=tmp / f"stream-{tag}",
        resume=resume,
    )
    report, results = runner.run()
    return runner, report, results


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
def test_event_log_round_trip_and_sequence_continuation(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("campaign_start", campaign="x", suites=["h264"])
        log.emit("wave_start", suite="h264", wave=0, jobs=2)
    # Reopening continues the sequence instead of restarting it.
    with EventLog(path) as log:
        event = log.emit("wave_end", suite="h264", wave=0, results=2, rejected=0)
        assert event.sequence == 2
    events = EventLog.read(path, strict=True)
    assert [e.type for e in events] == ["campaign_start", "wave_start", "wave_end"]
    assert [e.sequence for e in events] == [0, 1, 2]
    assert events[1].data == {"suite": "h264", "wave": 0, "jobs": 2}


@pytest.mark.parametrize("event_type", ["wave_exploded", "lease", "requeue"])
def test_event_log_rejects_unknown_types(tmp_path, event_type):
    with EventLog(tmp_path / "events.jsonl") as log:
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit(event_type)


def test_event_log_is_single_writer(tmp_path):
    """A second writer on one journal fails loudly, naming the holder."""
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    try:
        log.emit("campaign_start", campaign="x")
        with pytest.raises(ExplorationError, match="single-writer") as err:
            EventLog(path)
        assert f"pid {os.getpid()}" in str(err.value)
    finally:
        log.close()
    # Closing releases the flock: the next writer continues the sequence.
    with EventLog(path) as successor:
        assert successor.emit("campaign_end", campaign="x").sequence == 1


def test_event_log_refuses_to_emit_from_a_forked_child(tmp_path, monkeypatch):
    with EventLog(tmp_path / "events.jsonl") as log:
        log.emit("campaign_start", campaign="x")
        monkeypatch.setattr(log, "_pid", os.getpid() + 1)  # simulate the fork
        with pytest.raises(ExplorationError, match="fork"):
            log.emit("campaign_end", campaign="x")


def test_event_log_survives_a_torn_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("campaign_start", campaign="x")
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"v":1,"seq":1,"type":"wave_st')  # the crash, mid-line
    assert len(EventLog.read(path)) == 1  # torn line skipped
    with EventLog(path) as log:  # reopening heals the missing newline
        log.emit("campaign_end", campaign="x")
    events = EventLog.read(path)
    assert [e.type for e in events] == ["campaign_start", "campaign_end"]
    assert events[-1].sequence == 1


def test_replay_rejects_wave_end_without_start(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("campaign_start", campaign="x")
        log.emit("wave_end", suite="h264", wave=3, results=0, rejected=0)
    with pytest.raises(ExplorationError, match="without a wave_start"):
        replay_events(EventLog.read(path))


def test_replay_rejects_orphan_events(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("wave_start", suite="h264", wave=0, jobs=1)
    with pytest.raises(ExplorationError, match="before any campaign_start"):
        replay_events(EventLog.read(path))


# ----------------------------------------------------------------------
# Streamed campaigns
# ----------------------------------------------------------------------
def test_streamed_campaign_journals_and_checkpoints(small_spec, tmp_path):
    runner, report, _ = run_streamed(small_spec, tmp_path, "a")
    stream_dir = tmp_path / "stream-a"
    events = EventLog.read(stream_dir / "events.jsonl", strict=True)
    assert {event.type for event in events} <= set(EVENT_TYPES)
    assert events[0].type == "campaign_start"
    assert events[-1].type == "campaign_end"

    replay = replay_events(events)
    assert replay.campaigns == 1
    assert replay.completed_campaigns == 1
    assert replay.waves_completed["h264"] == runner.stream_summary["waves"]
    # One result event per distinct job (candidates + the base point).
    assert replay.results["h264"] == report.total_jobs

    checkpoint = CampaignCheckpoint.load(stream_dir / "checkpoint.json")
    assert checkpoint is not None
    assert checkpoint.fingerprint == campaign_fingerprint(small_spec)
    suite = checkpoint.suites["h264"]
    assert suite.complete
    assert len(suite.records) == report.total_jobs
    # Replaying the frontier_update events reproduces the checkpointed
    # frontier exactly.
    assert replay.frontier_vectors("h264") == suite.frontier
    assert suite.frontier  # the feasible base point at least


def test_stream_report_is_byte_identical_across_fresh_runs(small_spec, tmp_path):
    _, report_a, _ = run_streamed(small_spec, tmp_path, "a")
    _, report_b, _ = run_streamed(small_spec, tmp_path, "b")
    bytes_a = write_stream_report(tmp_path / "a.json", report_a)
    bytes_b = write_stream_report(tmp_path / "b.json", report_b)
    assert bytes_a == bytes_b
    payload = json.loads(bytes_a)
    assert payload["campaign"] == "stream-smoke"
    assert payload["suites"][0]["selected"] is not None
    assert "wall_seconds" not in json.dumps(payload)  # no timings leak in


class _CrashAfterWave:
    """Wrap a suite observer so the campaign dies after N live waves."""

    def __init__(self, inner, waves_before_crash):
        self.inner = inner
        self.waves_before_crash = waves_before_crash

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def wave_finished(self, outcome):
        self.inner.wave_finished(outcome)
        if outcome.wave_index + 1 >= self.waves_before_crash:
            raise KeyboardInterrupt("simulated mid-campaign crash")


def test_crashed_campaign_resumes_to_a_byte_identical_report(
    small_spec, tmp_path, monkeypatch
):
    # Reference: an uninterrupted streamed run.
    _, reference, _ = run_streamed(small_spec, tmp_path, "ref")
    reference_bytes = write_stream_report(tmp_path / "ref.json", reference)
    reference_waves = replay_events(
        EventLog.read(tmp_path / "stream-ref" / "events.jsonl")
    ).waves_completed["h264"]
    assert reference_waves >= 2  # the crash below must land mid-campaign

    # The victim: dies after its first completed wave.
    original = CampaignStreamController.suite_observer

    def crashing_observer(self, suite):
        return _CrashAfterWave(original(self, suite), waves_before_crash=1)

    monkeypatch.setattr(CampaignStreamController, "suite_observer", crashing_observer)
    with pytest.raises(KeyboardInterrupt):
        run_streamed(small_spec, tmp_path, "victim")
    monkeypatch.undo()

    checkpoint = CampaignCheckpoint.load(tmp_path / "stream-victim" / "checkpoint.json")
    assert checkpoint is not None
    partial = len(checkpoint.suites["h264"].records)
    assert 0 < partial < reference.total_jobs  # genuinely mid-campaign

    # Resume in the same stream directory: only unfinished jobs run.
    runner, resumed, _ = run_streamed(small_spec, tmp_path, "victim", resume=True)
    assert runner.stream_summary["resumed"] is True
    assert runner.stream_summary["checkpoint_hits"] == partial
    assert runner.stream_summary["waves"] < reference_waves  # waves skipped
    resumed_bytes = write_stream_report(tmp_path / "resumed.json", resumed)
    assert resumed_bytes == reference_bytes


def test_resume_refuses_a_different_campaign(small_spec, tmp_path):
    run_streamed(small_spec, tmp_path, "a")
    other = CampaignSpec(
        name="other",
        suites=("h264",),
        max_rows_shared=1,
        max_cols_shared=0,
        chunk_size=2,
    )
    with pytest.raises(ExplorationError, match="different campaign"):
        CampaignRunner(
            other, cache_dir=tmp_path / "cache-x", stream_dir=tmp_path / "stream-a", resume=True
        ).run()


def test_resume_without_stream_dir_is_rejected(small_spec, tmp_path):
    with pytest.raises(ValueError, match="needs stream_dir"):
        CampaignRunner(small_spec, cache_dir=tmp_path / "cache", resume=True)


def test_checkpoint_fragment_cache_matches_plain_serialisation(tmp_path):
    """The cached per-suite fragments must compose to exactly the bytes a
    plain sorted-keys json.dumps of the document would produce."""
    checkpoint = CampaignCheckpoint(fingerprint="f" * 64)
    active = checkpoint.suite("dsp")
    active.records["k1"] = {"label": "a", "area_slices": 1.5, "stalls": {}}
    active.frontier = [[1.0, 2.0], [2.0, 1.0]]
    done = checkpoint.suite("h264")
    done.complete = True

    def plain():
        return json.dumps(checkpoint.as_dict(), sort_keys=True, separators=(",", ":"))

    assert checkpoint._document_text() == plain()
    # Mutate the active suite: the cache must notice and re-serialise.
    active.records["k2"] = {"label": "b", "area_slices": 2.5, "stalls": {}}
    active.waves_done += 1
    assert checkpoint._document_text() == plain()
    # And a save/load round trip preserves everything.
    path = tmp_path / "checkpoint.json"
    checkpoint.save(path)
    loaded = CampaignCheckpoint.load(path)
    assert loaded.as_dict() == checkpoint.as_dict()


def test_resume_with_no_checkpoint_starts_fresh(small_spec, tmp_path):
    runner, report, _ = run_streamed(small_spec, tmp_path, "fresh", resume=True)
    assert runner.stream_summary["resumed"] is False
    assert runner.stream_summary["checkpoint_hits"] == 0
    assert report.suites[0].selected is not None


# ----------------------------------------------------------------------
# Store reads and accounting of a streamed campaign
# ----------------------------------------------------------------------
def two_suite_spec(*suites):
    return CampaignSpec(
        name="two-suites",
        suites=suites,
        max_rows_shared=1,
        max_cols_shared=0,
        chunk_size=4,
    )


def test_warm_streamed_two_suite_campaign_has_no_artifact_misses(tmp_path):
    """A streamed campaign over a warm store fetches every profile of
    both suites from it."""
    spec = two_suite_spec("h264", "paper")
    seed = CampaignRunner(spec, artifact_dir=tmp_path / "store")
    seed.run()
    warm = CampaignRunner(
        spec, artifact_dir=tmp_path / "store", stream_dir=tmp_path / "stream"
    )
    report, _ = warm.run()
    assert report.artifact_misses == 0
    assert report.artifact_hits > 0


def _stage_counts(stages):
    return {stage: (timing["hits"], timing["misses"]) for stage, timing in stages.items()}


def test_stream_mode_charges_every_mapping_stage_to_its_suite(tmp_path):
    """Streaming changes no suite's mapping accounting, and the suites'
    stage counts and mapping seconds add up to the campaign's."""
    spec = two_suite_spec("paper", "h264")
    reports = {}
    for mode in ("plain", "streamed"):
        store = tmp_path / mode
        reports[mode], _ = CampaignRunner(
            spec,
            cache_dir=store,
            artifact_dir=store,
            stream_dir=tmp_path / "stream" if mode == "streamed" else None,
        ).run()

    for plain, streamed in zip(reports["plain"].suites, reports["streamed"].suites):
        assert _stage_counts(streamed.mapping_stages) == _stage_counts(plain.mapping_stages)
    for report in reports.values():
        summed = {}
        for suite in report.suites:
            for stage, (hits, misses) in _stage_counts(suite.mapping_stages).items():
                before = summed.get(stage, (0, 0))
                summed[stage] = (before[0] + hits, before[1] + misses)
        assert summed == _stage_counts(report.mapping_stages)
        assert sum(suite.mapping_seconds for suite in report.suites) == pytest.approx(
            report.mapping_seconds
        )


def test_streamed_campaign_on_local_stores_starts_no_thread(tmp_path, monkeypatch):
    import threading

    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    CampaignRunner(
        two_suite_spec("h264", "paper"),
        cache_dir=tmp_path / "store",
        artifact_dir=tmp_path / "store",
        stream_dir=tmp_path / "stream",
    ).run()
    assert started == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_stream_writes_deterministic_report_and_summary(tmp_path, capsys):
    from repro.engine.__main__ import main

    output = tmp_path / "report.json"
    argv = [
        "--suite", "h264",
        "--max-rows-shared", "1",
        "--max-cols-shared", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--stream", str(tmp_path / "stream"),
        "--output", str(output),
    ]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "stream: " in printed
    assert "resumed=False" in printed
    payload = json.loads(output.read_text())
    assert payload["campaign"] == "campaign"
    assert "wall_seconds" not in payload  # deterministic report only
    first_bytes = output.read_bytes()

    # --resume on the finished stream: everything from the checkpoint,
    # byte-identical output.
    assert main(argv + ["--resume"]) == 0
    printed = capsys.readouterr().out
    assert "resumed=True" in printed
    assert output.read_bytes() == first_bytes


def test_cli_resume_requires_stream(capsys):
    from repro.engine.__main__ import main

    assert main(["--suite", "h264", "--resume", "--no-cache", "--quiet"]) == 2
    assert "--resume" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Kill (-TERM and -KILL) / resume, through the real CLI
# ----------------------------------------------------------------------
def _engine_argv(workdir: Path, stream: Path, output: Path, resume=False):
    argv = [
        sys.executable,
        "-m",
        "repro.engine",
        "--suite", "dsp",
        "--suite", "h264",
        "--max-rows-shared", "3",
        "--max-cols-shared", "3",
        "--stages", "1", "2", "3",
        "--chunk-size", "2",
        "--cache-dir", str(workdir / "cache"),
        "--stream", str(stream),
        "--output", str(output),
        "--quiet",
    ]
    if resume:
        argv.append("--resume")
    return argv


def _wave_end_count(events_path: Path) -> int:
    if not events_path.is_file():
        return 0
    return sum(1 for event in EventLog.read(events_path) if event.type == "wave_end")


def _subprocess_env():
    import repro

    source_root = Path(repro.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(source_root))


@pytest.fixture(scope="module")
def cli_reference(tmp_path_factory):
    """The uninterrupted CLI run both kill variants compare against."""
    tmp = tmp_path_factory.mktemp("cli-ref")
    env = _subprocess_env()
    reference_out = tmp / "reference.json"
    subprocess.run(
        _engine_argv(tmp / "ref", tmp / "stream-ref", reference_out),
        env=env, check=True, timeout=600,
    )
    reference_waves = _wave_end_count(tmp / "stream-ref" / "events.jsonl")
    assert reference_waves >= 4
    return reference_out.read_bytes(), reference_waves


@pytest.mark.parametrize(
    "kill_signal", [signal.SIGTERM, signal.SIGKILL], ids=["sigterm", "sigkill"]
)
def test_killed_campaign_then_resume_is_byte_identical(
    tmp_path, cli_reference, kill_signal
):
    """SIGTERM gets a chance to clean up; SIGKILL gets none (the journal's
    torn-tail heal and the checkpoint's write-then-rename carry it).  Both
    must resume to the reference bytes."""
    reference_bytes, reference_waves = cli_reference
    env = _subprocess_env()

    # The victim: killed once its first waves have checkpointed.
    victim_stream = tmp_path / "stream-victim"
    victim_out = tmp_path / "victim.json"
    victim = subprocess.Popen(
        _engine_argv(tmp_path / "victim", victim_stream, victim_out), env=env
    )
    events_path = victim_stream / "events.jsonl"
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        if victim.poll() is not None:
            pytest.fail("the victim campaign finished before it could be killed")
        if _wave_end_count(events_path) >= 2:
            break
        time.sleep(0.002)
    victim.send_signal(kill_signal)
    assert victim.wait(timeout=60) != 0
    assert not victim_out.exists()  # it never reached the report
    killed_waves = _wave_end_count(events_path)
    assert killed_waves >= 1

    # Resume: completed waves come from the checkpoint, not re-evaluation.
    subprocess.run(
        _engine_argv(tmp_path / "victim", victim_stream, victim_out, resume=True),
        env=env, check=True, timeout=600,
    )
    assert victim_out.read_bytes() == reference_bytes
    resumed_waves = _wave_end_count(events_path) - killed_waves
    assert resumed_waves < reference_waves  # >=1 wave skipped via checkpoint
