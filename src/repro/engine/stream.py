"""Streaming campaign mode: event logs and wave checkpoints.

Long campaigns used to be a black box that produced one JSON report at
the very end — a crash at wave N-1 lost everything except what the store
had cached.  This module makes a campaign *observable*, *interruptible*
and *resumable*:

Event log
    Every wave emits structured events (``campaign_start``,
    ``wave_start``, ``result``, ``frontier_update``, ``wave_end``,
    ``campaign_end``) to an append-only JSON-lines file next to the
    report.  Each line is self-contained, flushed as soon as it is
    emitted, and replayable (:func:`replay_events` validates the schema
    and rebuilds the campaign's trajectory).

Checkpoint
    After every wave the :class:`~repro.engine.checkpoint.CampaignCheckpoint`
    snapshots the completed-job records and the incremental Pareto
    frontier with a write-then-rename (crash-atomic) store.  A campaign
    killed at any point and restarted with ``resume=True`` re-enqueues
    only unfinished jobs and converges to a final report byte-identical
    to an uninterrupted run's (:func:`write_stream_report`).

Determinism note: the streaming final report deliberately contains only
*reproducible* fields (selections, fronts, candidate counts, metric
values).  Wall times and hit/miss counters necessarily differ between an
uninterrupted run and a killed-and-resumed one, so they live in the event
log — which is a faithful journal, not a comparison target.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.engine.cache import evaluation_record
from repro.engine.checkpoint import (
    CHECKPOINT_FILENAME,
    CampaignCheckpoint,
    SuiteCheckpoint,
    campaign_fingerprint,
)
from repro.engine.executor import WaveObserver, WaveOutcome
from repro.engine.frontier import ParetoFrontier
from repro.engine.jobs import CampaignSpec
from repro.errors import ExplorationError
from repro.store.locks import lock_path_for

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.exploration import DesignPointEvaluation
    from repro.engine.runner import CampaignReport

#: Event types a campaign stream may emit, in their natural order.
EVENT_TYPES: Tuple[str, ...] = (
    "campaign_start",
    "wave_start",
    "result",
    "frontier_update",
    "wave_end",
    "campaign_end",
)

#: Default event-log file name inside a stream directory.
EVENTS_FILENAME = "events.jsonl"

#: Schema marker stamped into every event line.
EVENT_VERSION = 1


# ----------------------------------------------------------------------
# Events and the append-only log
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignEvent:
    """One line of the campaign event log."""

    sequence: int
    type: str
    timestamp: float
    data: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "v": EVENT_VERSION,
            "seq": self.sequence,
            "type": self.type,
            "ts": self.timestamp,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignEvent":
        if not isinstance(payload, dict):
            raise ValueError(f"event lines are JSON objects, got {type(payload).__name__}")
        event_type = payload.get("type")
        if event_type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event_type!r}")
        data = payload.get("data", {})
        if not isinstance(data, dict):
            raise ValueError("event data must be an object")
        return cls(
            sequence=int(payload["seq"]),
            type=str(event_type),
            timestamp=float(payload.get("ts", 0.0)),
            data=data,
        )


class EventLog:
    """Append-only JSON-lines event writer/reader.

    Each event is one line, written and flushed atomically enough for a
    SIGKILL to lose at most the line being written; readers skip a torn
    trailing line.  Reopening an existing log continues the sequence
    numbering (and heals a missing trailing newline first), so a resumed
    campaign appends to the same journal.

    Event logs are **single-writer**: the torn-tail heal and the sequence
    continuation both assume exactly one appender, so opening one takes a
    non-blocking exclusive ``flock`` on a ``.lock`` sibling (held for the
    handle's lifetime, released automatically if the process is killed)
    and :meth:`emit` additionally refuses to run in a forked child — the
    same convention as :class:`repro.trace.db.TraceDB`.  Readers are
    unaffected; processes or machines sharing one store each keep their
    own stream directory.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.emitted = 0
        self._sequence = -1
        self._pid = os.getpid()
        self._lock_descriptor: Optional[int] = None
        self._acquire_writer_lock()
        needs_newline = False
        if self.path.is_file() and self.path.stat().st_size:
            raw = self.path.read_bytes()
            needs_newline = not raw.endswith(b"\n")
            for event in self._parse_lines(
                raw.decode("utf-8", errors="replace").splitlines()
            ):
                self._sequence = max(self._sequence, event.sequence)
        self._handle = self.path.open("a", encoding="utf-8")
        if needs_newline:
            # A previous run died mid-line; terminate the torn line so the
            # next event starts clean (readers drop the torn one).
            self._handle.write("\n")
            self._handle.flush()

    def _acquire_writer_lock(self) -> None:
        """Take the exclusive writer lock, or fail with the holder's pid."""
        if fcntl is None:  # pragma: no cover - POSIX everywhere we run
            return
        lock_path = lock_path_for(self.path)
        descriptor = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            holder = b""
            try:
                holder = os.read(descriptor, 64)
            except OSError:
                pass
            os.close(descriptor)
            owner = holder.decode("utf-8", errors="replace").strip()
            raise ExplorationError(
                f"event log {self.path} is already open for writing"
                + (f" by pid {owner}" if owner else "")
                + "; event logs are single-writer — two processes appending "
                "to one journal would interleave and corrupt its sequence. "
                "Use a separate stream directory per process."
            )
        os.ftruncate(descriptor, 0)
        os.write(descriptor, f"{self._pid}\n".encode("utf-8"))
        self._lock_descriptor = descriptor

    def emit(self, event_type: str, **data: Any) -> CampaignEvent:
        """Append one event and flush it to the OS immediately."""
        if event_type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {event_type!r}; known: {', '.join(EVENT_TYPES)}"
            )
        if os.getpid() != self._pid:
            raise ExplorationError(
                f"event log {self.path} belongs to pid {self._pid}; this "
                f"process (pid {os.getpid()}) inherited the handle across a "
                "fork — event logs are single-writer, so forked workers must "
                "ship results through the parent instead of emitting directly"
            )
        self._sequence += 1
        event = CampaignEvent(
            sequence=self._sequence, type=event_type, timestamp=time.time(), data=data
        )
        self._handle.write(
            json.dumps(event.as_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._handle.flush()
        self.emitted += 1
        return event

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
        if self._lock_descriptor is not None and os.getpid() == self._pid:
            try:
                if fcntl is not None:
                    fcntl.flock(self._lock_descriptor, fcntl.LOCK_UN)
                os.close(self._lock_descriptor)
            except OSError:  # pragma: no cover - descriptor already gone
                pass
            self._lock_descriptor = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _parse_lines(lines, strict: bool = False) -> List[CampaignEvent]:
        events: List[CampaignEvent] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(CampaignEvent.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                if strict:
                    raise
        return events

    @staticmethod
    def read(path: Union[str, Path], strict: bool = False) -> List[CampaignEvent]:
        """Parse the events stored at ``path``.

        Torn or foreign lines are skipped (a crash can truncate the final
        line); ``strict=True`` raises on them instead — the schema
        round-trip tests use that to prove every emitted line parses.
        """
        path = Path(path)
        if not path.is_file():
            return []
        with path.open("r", encoding="utf-8") as handle:
            return EventLog._parse_lines(handle, strict)


# ----------------------------------------------------------------------
# Replay: schema validation + trajectory reconstruction
# ----------------------------------------------------------------------
@dataclass
class StreamReplay:
    """What a validated event log describes."""

    events: int = 0
    campaigns: int = 0
    completed_campaigns: int = 0
    waves_started: Dict[str, int] = field(default_factory=dict)
    waves_completed: Dict[str, int] = field(default_factory=dict)
    results: Dict[str, int] = field(default_factory=dict)
    frontiers: Dict[str, ParetoFrontier] = field(default_factory=dict)

    def frontier_vectors(self, suite: str) -> List[List[float]]:
        frontier = self.frontiers.get(suite)
        return frontier.snapshot() if frontier is not None else []


def replay_events(events: List[CampaignEvent]) -> StreamReplay:
    """Validate an event stream and rebuild the campaign trajectory.

    Raises :class:`~repro.errors.ExplorationError` on schema violations:
    non-monotonic sequence numbers, wave events before any campaign
    started, or a ``wave_end`` without its ``wave_start``.  Frontiers are
    rebuilt by replaying every ``frontier_update`` in order, which must
    reproduce the checkpoint's snapshot exactly.
    """
    replay = StreamReplay()
    last_sequence = -1
    open_waves: Dict[Tuple[str, int], int] = {}
    for event in events:
        if event.sequence <= last_sequence:
            raise ExplorationError(
                f"event sequence went backwards: {event.sequence} after {last_sequence}"
            )
        last_sequence = event.sequence
        replay.events += 1
        if event.type == "campaign_start":
            replay.campaigns += 1
            continue
        if replay.campaigns == 0:
            raise ExplorationError(
                f"event {event.type!r} before any campaign_start"
            )
        if event.type == "campaign_end":
            replay.completed_campaigns += 1
            continue
        suite = event.data.get("suite")
        if not isinstance(suite, str) or not suite:
            raise ExplorationError(f"event {event.type!r} names no suite")
        if event.type in ("wave_start", "wave_end"):
            try:
                wave = int(event.data["wave"])
            except (KeyError, TypeError, ValueError):
                raise ExplorationError(
                    f"{event.type} event carries no usable wave number: {event.data!r}"
                )
        if event.type == "wave_start":
            open_waves[(suite, wave)] = event.sequence
            replay.waves_started[suite] = replay.waves_started.get(suite, 0) + 1
        elif event.type == "wave_end":
            if (suite, wave) not in open_waves:
                raise ExplorationError(
                    f"wave_end for {suite!r} wave {wave} without a wave_start"
                )
            del open_waves[(suite, wave)]
            replay.waves_completed[suite] = replay.waves_completed.get(suite, 0) + 1
        elif event.type == "result":
            replay.results[suite] = replay.results.get(suite, 0) + 1
        elif event.type == "frontier_update":
            vector = event.data.get("vector")
            if not isinstance(vector, (list, tuple)) or len(vector) != 2:
                raise ExplorationError("frontier_update events carry a 2-objective vector")
            frontier = replay.frontiers.setdefault(suite, ParetoFrontier(num_objectives=2))
            frontier.add(tuple(float(value) for value in vector))
    return replay


# ----------------------------------------------------------------------
# Deterministic final report
# ----------------------------------------------------------------------
def deterministic_report_payload(report: "CampaignReport") -> dict:
    """The reproducible subset of a campaign report.

    Contains exactly the fields that are a pure function of the campaign
    spec and the evaluation semantics: suite selections, front sizes,
    metric values and candidate counts.  Wall times and hit/miss counters
    are excluded — they describe *how* the campaign ran, not what it
    found, and necessarily differ between an uninterrupted run and a
    killed-and-resumed one.  With ``early_reject`` on, the feasible-count
    field is additionally dropped: the set of provably dominated
    candidates that get skipped depends on wave timing, while the front
    and the selection provably do not.
    """
    suites = []
    for suite in report.suites:
        entry: Dict[str, Any] = {
            "suite": suite.suite,
            "kernels": list(suite.kernels),
            "num_candidates": suite.num_candidates,
            "num_pareto": suite.num_pareto,
            "selected": suite.selected,
            "selected_kind": suite.selected_kind,
            "base_area_slices": suite.base_area_slices,
            "base_execution_time_ns": suite.base_execution_time_ns,
            "selected_area_slices": suite.selected_area_slices,
            "selected_execution_time_ns": suite.selected_execution_time_ns,
            "area_reduction_percent": suite.area_reduction_percent,
        }
        if not report.early_reject:
            entry["num_feasible"] = suite.num_feasible
        suites.append(entry)
    return {
        "campaign": report.campaign,
        "backend": report.backend,
        "workers": report.workers,
        "chunk_size": report.chunk_size,
        "early_reject": report.early_reject,
        "total_jobs": report.total_jobs,
        "suites": suites,
    }


def write_stream_report(path: Union[str, Path], report: "CampaignReport") -> bytes:
    """Write the canonical (byte-stable) streaming report; returns its bytes.

    Canonical form: sorted keys, two-space indent, trailing newline — so
    two campaigns that found the same results produce the same file, byte
    for byte, regardless of interruption, caching or machine speed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(deterministic_report_payload(report), sort_keys=True, indent=2) + "\n"
    data = text.encode("utf-8")
    path.write_bytes(data)
    return data


# ----------------------------------------------------------------------
# The controller driving one streamed campaign
# ----------------------------------------------------------------------
class _SuiteStreamObserver(WaveObserver):
    """Relays one suite's waves into events + checkpoint updates."""

    def __init__(self, controller: "CampaignStreamController", state: SuiteCheckpoint) -> None:
        self.controller = controller
        self.state = state
        #: Live frontier of feasible points, seeded from the checkpoint.
        self.frontier = ParetoFrontier.restore(state.frontier)
        #: Wave numbering continues across runs of the same checkpoint.
        self._wave_offset = state.waves_done
        #: Set mirror of the checkpoint's rejected list (O(1) dedup).
        self._rejected = set(state.rejected)

    def _wave(self, wave_index: int) -> int:
        return self._wave_offset + wave_index

    def base_evaluated(
        self,
        key: str,
        evaluation: "DesignPointEvaluation",
        source: str,
        feasible: bool,
    ) -> None:
        self.state.records[key] = evaluation_record(evaluation)
        self.controller.events.emit(
            "result",
            suite=self.state.suite,
            wave=None,
            key=key,
            label=evaluation.architecture.name,
            source=source,
            feasible=feasible,
            area_slices=evaluation.area_slices,
            execution_time_ns=evaluation.total_execution_time_ns,
        )
        self.controller.save_checkpoint()

    def wave_started(self, wave_index: int, job_count: int) -> None:
        self.controller.events.emit(
            "wave_start", suite=self.state.suite, wave=self._wave(wave_index), jobs=job_count
        )

    def wave_finished(self, outcome: WaveOutcome) -> None:
        wave = self._wave(outcome.wave_index)
        events = self.controller.events
        for result in outcome.results:
            self.state.records[result.key] = evaluation_record(result.evaluation)
            vector = (
                result.evaluation.area_slices,
                result.evaluation.total_execution_time_ns,
            )
            events.emit(
                "result",
                suite=self.state.suite,
                wave=wave,
                key=result.key,
                label=result.label,
                source=result.source,
                feasible=result.feasible,
                area_slices=vector[0],
                execution_time_ns=vector[1],
            )
            if result.feasible and self.frontier.add(vector):
                events.emit(
                    "frontier_update",
                    suite=self.state.suite,
                    key=result.key,
                    vector=list(vector),
                    size=len(self.frontier),
                )
        for _, key in outcome.rejected:
            if key not in self._rejected:
                self._rejected.add(key)
                self.state.rejected.append(key)
        self.state.frontier = self.frontier.snapshot()
        self.state.waves_done += 1
        self.controller.waves_run += 1
        events.emit(
            "wave_end",
            suite=self.state.suite,
            wave=wave,
            results=len(outcome.results),
            rejected=len(outcome.rejected),
            frontier_size=len(self.frontier),
        )
        self.controller.save_checkpoint()


class CampaignStreamController:
    """Owns the event log and checkpoint of one streamed campaign.

    Parameters
    ----------
    directory:
        Stream directory; holds ``events.jsonl`` (appended across runs)
        and ``checkpoint.json`` (atomically replaced after every wave).
    spec:
        The campaign being streamed; its fingerprint guards the
        checkpoint against resuming a different campaign.
    resume:
        Load an existing checkpoint and serve its completed jobs instead
        of re-enqueuing them.  With no checkpoint on disk the campaign
        simply starts fresh (so retry loops can pass ``resume=True``
        unconditionally); a checkpoint from a *different* spec is refused.
    """

    def __init__(
        self, directory: Union[str, Path], spec: CampaignSpec, resume: bool = False
    ) -> None:
        self.directory = Path(directory)
        self.spec = spec
        self.fingerprint = campaign_fingerprint(spec)
        self.checkpoint_path = self.directory / CHECKPOINT_FILENAME
        self.resumed = False
        # Validate the checkpoint *before* touching the directory: a
        # --resume pointed at another campaign's stream must be refused
        # without creating directories or appending to its journal.
        checkpoint: Optional[CampaignCheckpoint] = None
        if resume:
            checkpoint = CampaignCheckpoint.load(self.checkpoint_path)
            if checkpoint is not None:
                checkpoint.require_fingerprint(self.fingerprint, self.checkpoint_path)
                self.resumed = True
        self.directory.mkdir(parents=True, exist_ok=True)
        self.events = EventLog(self.directory / EVENTS_FILENAME)
        self.checkpoint = checkpoint or CampaignCheckpoint(fingerprint=self.fingerprint)
        self.resumed_records = self.checkpoint.total_records
        self.waves_run = 0
        self.checkpoint_hits = 0

    # ------------------------------------------------------------------
    # Campaign lifecycle
    # ------------------------------------------------------------------
    def campaign_started(self) -> None:
        self.events.emit(
            "campaign_start",
            campaign=self.spec.name,
            suites=list(self.spec.suites),
            fingerprint=self.fingerprint,
            resumed=self.resumed,
            checkpoint_records=self.resumed_records,
            chunk_size=self.spec.chunk_size,
            early_reject=self.spec.early_reject,
        )

    def completed_records(self, suite: str) -> Dict[str, dict]:
        """The checkpointed evaluation records of ``suite`` (resume input)."""
        return dict(self.checkpoint.suite(suite).records)

    def suite_observer(self, suite: str) -> _SuiteStreamObserver:
        """The wave observer that journals and checkpoints ``suite``."""
        return _SuiteStreamObserver(self, self.checkpoint.suite(suite))

    def suite_finished(self, suite: str) -> None:
        self.checkpoint.suite(suite).complete = True
        self.save_checkpoint()

    def campaign_finished(self, checkpoint_hits: int = 0) -> None:
        self.checkpoint_hits = checkpoint_hits
        self.events.emit(
            "campaign_end",
            campaign=self.spec.name,
            resumed=self.resumed,
            checkpoint_hits=checkpoint_hits,
            waves=self.waves_run,
            suites=[name for name, suite in self.checkpoint.suites.items() if suite.complete],
        )

    def save_checkpoint(self) -> None:
        self.checkpoint.save(self.checkpoint_path)

    def close(self) -> None:
        self.events.close()

    def __enter__(self) -> "CampaignStreamController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def summary(self) -> Dict[str, Any]:
        """One-line facts for the CLI's ``stream:`` summary."""
        return {
            "directory": str(self.directory),
            "resumed": self.resumed,
            "events": self.events.emitted,
            "waves": self.waves_run,
            "checkpoint_hits": self.checkpoint_hits,
            "records": self.checkpoint.total_records,
        }
