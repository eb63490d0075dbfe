"""The campaign coordinator: wave leasing, heartbeats, dead-worker requeue.

This module promotes :mod:`repro.service` from a passive store into an
active scheduler.  One coordinator owns the authoritative state of every
submitted campaign; any number of worker processes
(:mod:`repro.engine.worker`, ``python -m repro.engine --worker``) then
drive one campaign together:

1. **Submit** — every worker POSTs the campaign spec; submission is
   idempotent by :func:`~repro.engine.checkpoint.campaign_fingerprint`,
   so N workers submitting the same spec land on one shared campaign.
   The coordinator plans the work as *waves*: contiguous slices of the
   suite's non-base job list (the exact list
   :func:`~repro.engine.executor.run_exploration` builds), with the
   first wave of each suite additionally carrying the base evaluation.
2. **Lease** — a worker leases the next pending wave.  The lease carries
   a deadline (:attr:`LeasePolicy.lease_timeout` from now); the worker
   heartbeats to push the deadline out while it evaluates.
3. **Complete** — the worker reports the wave's evaluation records, keyed
   by job content hash, and the coordinator merges them into a
   server-side :class:`~repro.engine.checkpoint.CampaignCheckpoint` (the
   PR 5 substrate — the same file a single-machine ``--resume`` reads).
   Ingest is **idempotent**: records are content-hash keyed and two
   completions of one wave merge to identical state, so a worker that
   lost its lease mid-evaluation may still report harmlessly.
4. **Requeue** — leases are expired *lazily*: every request first sweeps
   the deadlines, and a lease whose worker went silent returns its wave
   to the pending queue (``requeue`` event, ``coordinator.lease`` trace
   span with ``outcome="expired"``).  A killed worker therefore costs one
   lease timeout, never the campaign.

Durability: each campaign owns a directory under the coordinator root
holding ``campaign.json`` (the manifest: spec payload, wave plan inputs,
policy), ``events.jsonl`` (the journal: ``lease`` / ``requeue`` /
``wave_end`` / ``campaign_end``) and ``checkpoint.json`` (the merged
records, write-then-rename).  A restarted coordinator replays the
journal against the manifest: completed waves stay completed (their
records are already in the checkpoint — the merge happens *before* the
``wave_end`` is journaled), in-flight leases are forgotten and simply
re-leased.  The event log's single-writer flock doubles as the guard
against two coordinators serving one root.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.engine.checkpoint import (
    CHECKPOINT_FILENAME,
    CampaignCheckpoint,
    campaign_fingerprint,
)
from repro.engine.jobs import CampaignSpec
from repro.engine.stream import EVENTS_FILENAME, EventLog
from repro.errors import ExplorationError
from repro.trace.spans import STATUS_ERROR, STATUS_OK, get_tracer

#: File name of the per-campaign manifest inside its state directory.
MANIFEST_FILENAME = "campaign.json"

#: Characters of the fingerprint used as the public campaign id.
CAMPAIGN_ID_CHARS = 16


class CoordinatorError(Exception):
    """A request the coordinator refuses; carries its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class LeasePolicy:
    """Declarative lease/heartbeat/requeue timing of one coordinator.

    Attributes
    ----------
    lease_timeout:
        Seconds a lease lives without a heartbeat before its wave is
        requeued.  Each heartbeat (and the grant itself) pushes the
        deadline this far into the future.
    heartbeat_interval:
        The cadence workers are told to heartbeat at; also the
        ``retry_after`` hint handed to workers polling an empty queue.
        Must leave comfortable slack under ``lease_timeout``.
    max_attempts:
        Times one wave may be leased in total before the campaign is
        declared failed — a wave that kills every worker it touches must
        eventually stop the fleet instead of cycling forever.
    """

    lease_timeout: float = 30.0
    heartbeat_interval: float = 5.0
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if self.lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {self.lease_timeout}")
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.heartbeat_interval >= self.lease_timeout:
            raise ValueError(
                f"heartbeat_interval ({self.heartbeat_interval}) must be shorter "
                f"than lease_timeout ({self.lease_timeout}) or every lease expires"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {self.max_attempts}")

    def as_dict(self) -> dict:
        return {
            "lease_timeout": self.lease_timeout,
            "heartbeat_interval": self.heartbeat_interval,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LeasePolicy":
        return cls(
            lease_timeout=float(payload.get("lease_timeout", 30.0)),
            heartbeat_interval=float(payload.get("heartbeat_interval", 5.0)),
            max_attempts=int(payload.get("max_attempts", 5)),
        )


@dataclass
class WaveState:
    """One leasable unit of campaign work and its scheduling state."""

    suite: str
    index: int
    #: Positions into the suite's non-base job list (grid order), exactly
    #: as :func:`~repro.engine.executor.run_exploration` enumerates it.
    indices: Tuple[int, ...]
    #: The first wave of each suite also evaluates the base point.
    include_base: bool = False
    status: str = "pending"  # pending | leased | done | failed
    attempts: int = 0
    lease: Optional[str] = None
    worker: Optional[str] = None
    deadline: float = 0.0
    granted_at: float = 0.0

    @property
    def wave_id(self) -> str:
        return f"{self.suite}:{self.index}"


def plan_waves(spec: CampaignSpec, wave_size: int) -> List[WaveState]:
    """Slice a campaign into its waves (per suite, grid order).

    Deterministic and derivable by every party from the spec alone: the
    coordinator plans with it, and workers rebuild the identical job list
    to resolve the indices a lease names.
    """
    if wave_size < 1:
        raise CoordinatorError(400, f"wave_size must be at least 1, got {wave_size}")
    job_count = sum(
        1 for parameters in spec.candidate_grid() if parameters.kind != "base"
    )
    waves: List[WaveState] = []
    for suite in spec.suites:
        if job_count == 0:
            # Degenerate grid: the suite still needs its base evaluation.
            waves.append(WaveState(suite=suite, index=0, indices=(), include_base=True))
            continue
        for wave_index, start in enumerate(range(0, job_count, wave_size)):
            waves.append(
                WaveState(
                    suite=suite,
                    index=wave_index,
                    indices=tuple(range(start, min(start + wave_size, job_count))),
                    include_base=wave_index == 0,
                )
            )
    return waves


class _CampaignState:
    """Everything the coordinator holds about one campaign."""

    def __init__(
        self,
        campaign_id: str,
        spec: CampaignSpec,
        payload: dict,
        wave_size: int,
        directory: Path,
        events: EventLog,
        checkpoint: CampaignCheckpoint,
    ) -> None:
        self.campaign_id = campaign_id
        self.spec = spec
        self.payload = payload
        self.wave_size = wave_size
        self.directory = directory
        self.events = events
        self.checkpoint = checkpoint
        self.waves: Dict[str, WaveState] = {
            wave.wave_id: wave for wave in plan_waves(spec, wave_size)
        }
        self.leases: Dict[str, WaveState] = {}
        self.workers: Dict[str, Dict[str, Any]] = {}
        self.requeues = 0
        self.complete = False
        self.failed: Optional[str] = None
        self._lease_sequence = 0
        self._worker_sequence = 0

    def next_lease_id(self) -> str:
        self._lease_sequence += 1
        return f"{self.campaign_id}-L{self._lease_sequence}"

    def next_worker_id(self, name: Optional[str]) -> str:
        self._worker_sequence += 1
        stem = (name or "worker").strip() or "worker"
        return f"{stem}-{self._worker_sequence}"

    def wave_counts(self) -> Dict[str, int]:
        counts = {"total": len(self.waves), "pending": 0, "leased": 0, "done": 0, "failed": 0}
        for wave in self.waves.values():
            counts[wave.status] = counts.get(wave.status, 0) + 1
        return counts


class CampaignCoordinator:
    """The lease/heartbeat/requeue state machine behind the HTTP routes.

    Thread-safe: HTTP handler threads call straight in, one reentrant
    lock serialises every mutation.  Lease expiry is *lazy* — there is no
    reaper thread; every entry point first sweeps the deadlines under the
    lock, so a dead worker's wave is requeued by whichever request
    arrives next.  ``clock`` is injectable (monotonic) so tests drive
    expiry deterministically.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        policy: Optional[LeasePolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.policy = policy or LeasePolicy()
        self._clock = clock
        self._lock = threading.RLock()
        self._campaigns: Dict[str, _CampaignState] = {}
        self._recover()

    # ------------------------------------------------------------------
    # Durability: manifest + journal replay
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Reload every campaign directory under the root (restart path).

        Completed waves are re-marked from the journal's ``wave_end``
        events (their records are guaranteed present: the checkpoint is
        saved before the event is emitted).  Leases are *not* recovered —
        a coordinator restart forgets who held what, and the affected
        waves are simply leased again; idempotent ingest makes the
        overlap harmless.
        """
        for manifest_path in sorted(self.directory.glob(f"*/{MANIFEST_FILENAME}")):
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
                spec = CampaignSpec.from_payload(manifest["spec"])
                wave_size = int(manifest["wave_size"])
            except (OSError, ValueError, KeyError, ExplorationError):
                continue  # an unreadable manifest is skipped, not fatal
            state = self._build_state(spec, wave_size, resume=True)
            for event in EventLog.read(state.directory / EVENTS_FILENAME):
                data = event.data
                if event.type == "wave_end":
                    wave = state.waves.get(f"{data.get('suite')}:{data.get('wave')}")
                    if wave is not None:
                        wave.status = "done"
                elif event.type == "requeue":
                    state.requeues += 1
                    wave = state.waves.get(f"{data.get('suite')}:{data.get('wave')}")
                    if wave is not None:
                        wave.attempts += 1
                elif event.type == "campaign_end":
                    state.complete = True
            self._check_failed(state)
            self._campaigns[state.campaign_id] = state

    def _build_state(
        self, spec: CampaignSpec, wave_size: int, resume: bool
    ) -> _CampaignState:
        fingerprint = campaign_fingerprint(spec)
        campaign_id = fingerprint[:CAMPAIGN_ID_CHARS]
        directory = self.directory / campaign_id
        directory.mkdir(parents=True, exist_ok=True)
        checkpoint_path = directory / CHECKPOINT_FILENAME
        checkpoint = CampaignCheckpoint.load(checkpoint_path) if resume else None
        if checkpoint is not None:
            checkpoint.require_fingerprint(fingerprint, checkpoint_path)
        else:
            checkpoint = CampaignCheckpoint(fingerprint=fingerprint)
        events = EventLog(directory / EVENTS_FILENAME)
        return _CampaignState(
            campaign_id=campaign_id,
            spec=spec,
            payload=spec.as_payload(),
            wave_size=wave_size,
            directory=directory,
            events=events,
            checkpoint=checkpoint,
        )

    def _save_manifest(self, state: _CampaignState) -> None:
        manifest = {
            "campaign": state.campaign_id,
            "spec": state.payload,
            "wave_size": state.wave_size,
            "policy": self.policy.as_dict(),
        }
        path = state.directory / MANIFEST_FILENAME
        scratch = path.with_name(path.name + f".tmp.{os.getpid()}")
        scratch.write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        os.replace(scratch, path)

    # ------------------------------------------------------------------
    # Internal helpers (call with the lock held)
    # ------------------------------------------------------------------
    def _state(self, campaign_id: str) -> _CampaignState:
        state = self._campaigns.get(campaign_id)
        if state is None:
            raise CoordinatorError(404, f"no campaign {campaign_id!r} on this coordinator")
        return state

    def _expire(self, state: _CampaignState) -> None:
        """Requeue every lease whose heartbeat deadline has passed."""
        now = self._clock()
        for lease_id, wave in list(state.leases.items()):
            if now < wave.deadline or wave.lease != lease_id:
                continue
            del state.leases[lease_id]
            if wave.status != "leased":
                continue
            state.requeues += 1
            worker = wave.worker
            wave.status = "pending"
            wave.lease = None
            wave.worker = None
            state.events.emit(
                "requeue",
                suite=wave.suite,
                wave=wave.index,
                lease=lease_id,
                worker=worker,
                attempt=wave.attempts,
            )
            tracer = get_tracer()
            if tracer.active:
                tracer.record_span(
                    "coordinator.lease",
                    kind="lease",
                    duration_s=max(0.0, now - wave.granted_at),
                    status=STATUS_ERROR,
                    campaign=state.campaign_id,
                    suite=wave.suite,
                    wave=wave.index,
                    worker=worker,
                    lease=lease_id,
                    attempt=wave.attempts,
                    outcome="expired",
                )
                tracer.counter("lease.requeued")
        self._check_failed(state)

    def _check_failed(self, state: _CampaignState) -> None:
        if state.failed is not None:
            return
        for wave in state.waves.values():
            if wave.status == "pending" and wave.attempts >= self.policy.max_attempts:
                wave.status = "failed"
                state.failed = (
                    f"wave {wave.wave_id} exhausted its {self.policy.max_attempts} "
                    "lease attempts (it may be killing the workers it lands on)"
                )

    def _maybe_finish(self, state: _CampaignState) -> None:
        if state.complete:
            return
        if all(wave.status == "done" for wave in state.waves.values()):
            state.complete = True
            state.events.emit(
                "campaign_end",
                campaign=state.spec.name,
                resumed=False,
                checkpoint_hits=0,
                waves=len(state.waves),
                suites=list(state.spec.suites),
            )

    # ------------------------------------------------------------------
    # The coordinator API (one method per HTTP route)
    # ------------------------------------------------------------------
    def create_campaign(self, payload: dict, wave_size: Optional[int] = None) -> dict:
        """Submit a campaign (idempotent by spec fingerprint)."""
        try:
            spec = CampaignSpec.from_payload(payload)
        except ExplorationError as exc:
            raise CoordinatorError(400, str(exc)) from exc
        effective_wave_size = int(wave_size) if wave_size is not None else spec.chunk_size
        with self._lock:
            campaign_id = campaign_fingerprint(spec)[:CAMPAIGN_ID_CHARS]
            state = self._campaigns.get(campaign_id)
            created = state is None
            if created:
                state = self._build_state(spec, effective_wave_size, resume=False)
                self._save_manifest(state)
                state.events.emit(
                    "campaign_start",
                    campaign=spec.name,
                    suites=list(spec.suites),
                    fingerprint=campaign_fingerprint(spec),
                    resumed=False,
                    checkpoint_records=0,
                    chunk_size=spec.chunk_size,
                    early_reject=spec.early_reject,
                )
                state.checkpoint.save(state.directory / CHECKPOINT_FILENAME)
                self._campaigns[campaign_id] = state
            document = self.status(campaign_id)
            document["created"] = created
            return document

    def register(self, campaign_id: str, name: Optional[str] = None) -> dict:
        """Register a worker; returns its id and the lease policy."""
        with self._lock:
            state = self._state(campaign_id)
            worker_id = state.next_worker_id(name)
            state.workers[worker_id] = {"name": name or "worker", "leases": 0, "completed": 0}
            return {
                "campaign": campaign_id,
                "worker": worker_id,
                "policy": self.policy.as_dict(),
            }

    def lease(self, campaign_id: str, worker: str) -> dict:
        """Lease the next pending wave (or report wait/complete/failed)."""
        with self._lock:
            state = self._state(campaign_id)
            self._expire(state)
            if state.failed is not None:
                return {"status": "failed", "detail": state.failed}
            if state.complete:
                return {"status": "complete"}
            wave = next(
                (wave for wave in state.waves.values() if wave.status == "pending"), None
            )
            if wave is None:
                if all(w.status == "done" for w in state.waves.values()):
                    return {"status": "complete"}
                return {
                    "status": "wait",
                    "retry_after": self.policy.heartbeat_interval,
                    "leased": sum(
                        1 for w in state.waves.values() if w.status == "leased"
                    ),
                }
            now = self._clock()
            lease_id = state.next_lease_id()
            wave.status = "leased"
            wave.attempts += 1
            wave.lease = lease_id
            wave.worker = worker
            wave.granted_at = now
            wave.deadline = now + self.policy.lease_timeout
            state.leases[lease_id] = wave
            if worker in state.workers:
                state.workers[worker]["leases"] += 1
            state.events.emit(
                "lease",
                suite=wave.suite,
                wave=wave.index,
                lease=lease_id,
                worker=worker,
                attempt=wave.attempts,
                jobs=len(wave.indices) + (1 if wave.include_base else 0),
            )
            get_tracer().counter("lease.granted")
            return {
                "status": "leased",
                "lease": lease_id,
                "suite": wave.suite,
                "wave": wave.index,
                "indices": list(wave.indices),
                "include_base": wave.include_base,
                "attempt": wave.attempts,
                "lease_timeout": self.policy.lease_timeout,
                "heartbeat_interval": self.policy.heartbeat_interval,
            }

    def heartbeat(self, campaign_id: str, lease_id: str) -> dict:
        """Extend a live lease's deadline; 409 when the lease was lost."""
        with self._lock:
            state = self._state(campaign_id)
            self._expire(state)
            wave = state.leases.get(lease_id)
            if wave is None or wave.lease != lease_id:
                raise CoordinatorError(
                    409,
                    f"lease {lease_id!r} is not active (expired and requeued, "
                    "or already completed); stop evaluating or report anyway — "
                    "completion ingest is idempotent",
                )
            wave.deadline = self._clock() + self.policy.lease_timeout
            return {"status": "ok", "deadline_in": self.policy.lease_timeout}

    def complete(
        self,
        campaign_id: str,
        lease_id: Optional[str],
        suite: str,
        wave_index: int,
        records: Dict[str, dict],
    ) -> dict:
        """Ingest one wave's evaluation records (idempotent by content hash).

        Completions are accepted even when the lease already expired — the
        evaluation is done, the records are content-addressed, and merging
        them twice produces identical state.  Only the *first* completion
        transitions the wave to ``done`` and journals the ``wave_end``.
        """
        if not isinstance(records, dict) or not all(
            isinstance(key, str) and isinstance(record, dict)
            for key, record in records.items()
        ):
            raise CoordinatorError(
                400, 'complete expects {"records": {content_hash: record, ...}}'
            )
        with self._lock:
            state = self._state(campaign_id)
            self._expire(state)
            wave = state.waves.get(f"{suite}:{wave_index}")
            if wave is None:
                raise CoordinatorError(
                    404, f"campaign {campaign_id!r} has no wave {suite}:{wave_index}"
                )
            state.checkpoint.suite(suite).records.update(records)
            state.checkpoint.save(state.directory / CHECKPOINT_FILENAME)
            duplicate = wave.status == "done"
            lease_valid = lease_id is not None and state.leases.get(lease_id) is wave
            if lease_valid:
                del state.leases[lease_id]
            if not duplicate:
                worker = wave.worker if lease_valid else None
                wave.status = "done"
                wave.lease = None
                wave.worker = None
                state.events.emit(
                    "wave_end",
                    suite=suite,
                    wave=wave_index,
                    results=len(records),
                    lease=lease_id,
                    worker=worker,
                )
                if worker in state.workers:
                    state.workers[worker]["completed"] += 1
                tracer = get_tracer()
                if tracer.active:
                    tracer.record_span(
                        "coordinator.lease",
                        kind="lease",
                        duration_s=(
                            max(0.0, self._clock() - wave.granted_at)
                            if wave.granted_at
                            else 0.0
                        ),
                        status=STATUS_OK,
                        campaign=state.campaign_id,
                        suite=suite,
                        wave=wave_index,
                        worker=worker,
                        lease=lease_id,
                        attempt=wave.attempts,
                        records=len(records),
                        outcome="completed",
                    )
                    tracer.counter("lease.completed")
                self._maybe_finish(state)
            return {
                "status": "ok",
                "duplicate": duplicate,
                "lease_valid": lease_valid,
                "records": len(records),
                "campaign_complete": state.complete,
            }

    def status(self, campaign_id: str) -> dict:
        """The campaign's public status document."""
        with self._lock:
            state = self._state(campaign_id)
            self._expire(state)
            return {
                "campaign": campaign_id,
                "name": state.spec.name,
                "suites": list(state.spec.suites),
                "wave_size": state.wave_size,
                "waves": state.wave_counts(),
                "requeues": state.requeues,
                "records": state.checkpoint.total_records,
                "workers": {
                    worker_id: dict(facts) for worker_id, facts in state.workers.items()
                },
                "complete": state.complete,
                "failed": state.failed,
                "policy": self.policy.as_dict(),
            }

    def checkpoint_document(self, campaign_id: str) -> dict:
        """The merged checkpoint (what workers download to finalize)."""
        with self._lock:
            state = self._state(campaign_id)
            return state.checkpoint.as_dict()

    def campaign_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._campaigns)

    def close(self) -> None:
        """Release every campaign's journal (and its single-writer lock)."""
        with self._lock:
            for state in self._campaigns.values():
                state.events.close()

    def __enter__(self) -> "CampaignCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
