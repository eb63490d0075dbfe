"""Fleet worker: lease waves from a campaign coordinator and evaluate them.

``python -m repro.engine --worker --coordinator URL`` runs this loop.  A
worker is a full evaluation engine (mapper pipeline, persistent caches,
batch path) that gets its *work list* from the coordinator instead of
planning it locally:

1. **Submit** the campaign spec (idempotent — every worker submits, the
   coordinator dedups by fingerprint) and **register** for a worker id.
2. **Lease** waves in a loop.  A grant names a suite and the positions of
   the wave's jobs within the suite's non-base job list (grid order —
   exactly the list :func:`~repro.engine.executor.run_exploration`
   builds, which every worker reconstructs identically from the spec).
3. **Heartbeat** on a daemon thread while the wave evaluates, so a live
   worker's lease never expires mid-evaluation, while a killed worker
   goes silent and its wave is requeued after the lease timeout.
4. **Complete** with the wave's evaluation records keyed by job content
   hash.  Completion is idempotent server-side, so a worker whose lease
   expired (a long GC pause, a lost heartbeat) still reports safely.
5. When the coordinator answers ``complete``, **finalize**: download the
   merged checkpoint into a local stream directory and run the campaign
   through :class:`~repro.engine.runner.CampaignRunner` in resume mode.
   Every job is served from the checkpoint, so the run computes nothing —
   it deterministically re-derives the Pareto front, the knee-point
   selection and the canonical report, byte-identical to a serial run.

The early-reject filter is never used worker-side: rejection depends on
wave *timing* (which completed feasible points are already known), and a
fleet's timing is nondeterministic.  Workers evaluate every leased job;
the finalize pass applies the spec's semantics — with ``early_reject``
on, the canonical report drops the timing-dependent fields, exactly as
the single-machine streaming mode does.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union
from urllib.parse import urlsplit

from repro.core.exploration import RSPDesignSpaceExplorer
from repro.core.rsp_params import base_parameters
from repro.engine.artifacts import ArtifactStore
from repro.engine.cache import EvaluationCache, evaluation_record
from repro.engine.checkpoint import CHECKPOINT_FILENAME, campaign_fingerprint
from repro.engine.executor import (
    EngineRunStats,
    EvaluationEngine,
    ExecutorConfig,
)
from repro.engine.jobs import (
    CampaignSpec,
    EvaluationJob,
    evaluation_context_hash,
    suite_kernels,
)
from repro.engine.runner import CampaignReport, CampaignRunner
from repro.engine.stream import write_stream_report
from repro.errors import ExplorationError
from repro.mapping.mapper import RSPMapper
from repro.store import open_store_backend
from repro.trace.spans import STATUS_ERROR, STATUS_OK, get_tracer

#: Transport-level failures the client retries (mirrors RemoteBackend).
_TRANSPORT_ERRORS = (
    ConnectionError,
    socket.timeout,
    TimeoutError,
    http.client.HTTPException,
    OSError,
)


class CoordinatorUnavailable(ExplorationError):
    """The coordinator could not be reached within the retry budget."""


class CoordinatorRequestError(ExplorationError):
    """The coordinator answered with an HTTP error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """Keep-alive connection with Nagle off (see repro.store.remote)."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class CoordinatorClient:
    """Thin JSON client for the coordinator's ``/campaign`` routes.

    One persistent keep-alive connection per thread (the heartbeat pump
    runs on its own thread and must not share a socket with the lease
    loop).  Transport failures are retried with exponential backoff;
    HTTP error statuses raise :class:`CoordinatorRequestError` — notably
    the ``409`` a heartbeat gets once its lease has been requeued.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.05,
        sleep=time.sleep,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("http", ""):
            raise ExplorationError(f"coordinator URLs are http://, got {url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.prefix = parts.path.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _NoDelayHTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            try:
                connection.close()
            except Exception:
                pass
            self._local.connection = None

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_error: Optional[Exception] = None
        delay = self.backoff
        for attempt in range(self.retries + 1):
            connection = self._connection()
            try:
                connection.request(method, self.prefix + path, body=body, headers=headers)
                response = connection.getresponse()
                data = response.read()
            except _TRANSPORT_ERRORS as exc:
                # A stale keep-alive socket (coordinator restarted) looks
                # like a transport error; reconnect and retry.
                self._drop_connection()
                last_error = exc
                if attempt < self.retries:
                    self._sleep(delay)
                    delay *= 2
                continue
            try:
                document = json.loads(data.decode("utf-8")) if data else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                document = {}
            if response.status >= 400:
                message = (
                    document.get("error")
                    if isinstance(document, dict) and document.get("error")
                    else f"HTTP {response.status}"
                )
                raise CoordinatorRequestError(response.status, str(message))
            if not isinstance(document, dict):
                raise CoordinatorRequestError(502, f"non-object response to {path}")
            return document
        raise CoordinatorUnavailable(
            f"coordinator at http://{self.host}:{self.port} unreachable after "
            f"{self.retries + 1} attempts: {last_error}"
        )

    # -- one method per route ------------------------------------------
    def submit(self, spec_payload: dict, wave_size: Optional[int] = None) -> dict:
        document: Dict[str, Any] = {"spec": spec_payload}
        if wave_size is not None:
            document["wave_size"] = wave_size
        return self._request("POST", "/campaign", document)

    def register(self, campaign_id: str, name: Optional[str] = None) -> dict:
        return self._request(
            "POST", f"/campaign/{campaign_id}/register", {"worker": name}
        )

    def lease(self, campaign_id: str, worker: str) -> dict:
        return self._request(
            "POST", f"/campaign/{campaign_id}/lease", {"worker": worker}
        )

    def heartbeat(self, campaign_id: str, lease: str) -> dict:
        return self._request(
            "POST", f"/campaign/{campaign_id}/heartbeat", {"lease": lease}
        )

    def complete(
        self,
        campaign_id: str,
        lease: Optional[str],
        suite: str,
        wave: int,
        records: Dict[str, dict],
    ) -> dict:
        return self._request(
            "POST",
            f"/campaign/{campaign_id}/complete",
            {"lease": lease, "suite": suite, "wave": wave, "records": records},
        )

    def status(self, campaign_id: str) -> dict:
        return self._request("GET", f"/campaign/{campaign_id}")

    def checkpoint(self, campaign_id: str) -> dict:
        return self._request("GET", f"/campaign/{campaign_id}/checkpoint")

    def close(self) -> None:
        self._drop_connection()


class _HeartbeatPump(threading.Thread):
    """Daemon thread heartbeating one lease until stopped (or lost).

    Transport errors are swallowed and retried next tick — a worker must
    outlive a coordinator restart, and completion is idempotent anyway.
    A ``409`` means the lease was requeued out from under us: the pump
    stops and flags :attr:`lost` so the loop can count it.
    """

    def __init__(
        self, client: CoordinatorClient, campaign_id: str, lease: str, interval: float
    ) -> None:
        super().__init__(name=f"heartbeat-{lease}", daemon=True)
        self.client = client
        self.campaign_id = campaign_id
        self.lease = lease
        self.interval = interval
        self.lost = False
        # Not named _stop: threading.Thread has an internal _stop method
        # that join() calls, and shadowing it breaks the join.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                self.client.heartbeat(self.campaign_id, self.lease)
            except CoordinatorRequestError:
                self.lost = True
                return
            except ExplorationError:
                continue

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.interval + 5.0)


class _SuiteContext:
    """One suite's evaluation machinery, built lazily per worker.

    Derives the identical job list every other worker (and the serial
    runner) derives, so the coordinator's wave indices resolve to the
    same candidates everywhere.
    """

    def __init__(
        self,
        suite: str,
        spec: CampaignSpec,
        mapper: RSPMapper,
        config: ExecutorConfig,
        cache_dir: Optional[Path],
        store_backend,
        store_shards: int,
    ) -> None:
        self.suite = suite
        kernels = suite_kernels(suite)
        profiles = mapper.pipeline.profiles_for(kernels)
        self.explorer = RSPDesignSpaceExplorer(profiles, array=mapper.base.array)
        cache: Optional[EvaluationCache] = None
        if store_backend is not None or cache_dir is not None:
            context = evaluation_context_hash(
                profiles,
                self.explorer.array,
                self.explorer.cost_model,
                self.explorer.timing_model,
            )
            if store_backend is not None:
                cache = EvaluationCache(
                    backend=store_backend, namespace=f"evals-{context[:16]}"
                )
            else:
                cache = EvaluationCache.for_context(
                    cache_dir, context, shards=store_shards
                )
        self.engine = EvaluationEngine(self.explorer, config=config, cache=cache)
        self.jobs: List[EvaluationJob] = [
            EvaluationJob(parameters=parameters)
            for parameters in spec.candidate_grid()
            if parameters.kind != "base"
        ]
        self.base_job = EvaluationJob(parameters=base_parameters(), name="Base")
        self.base_key = self.base_job.content_hash(self.engine.context_hash)

    def evaluate_wave(
        self, indices: Sequence[int], include_base: bool, stats: EngineRunStats
    ) -> Dict[str, dict]:
        """Evaluate the leased jobs; returns content-hash-keyed flat records."""
        bad = [index for index in indices if not 0 <= index < len(self.jobs)]
        if bad:
            raise ExplorationError(
                f"lease names job indices {bad} outside the suite's "
                f"{len(self.jobs)}-job list — coordinator and worker disagree "
                "on the campaign spec"
            )
        subset = [self.jobs[index] for index in indices]
        results, _ = self.engine.evaluate_jobs(subset, stats)
        records = {
            subset[position].content_hash(self.engine.context_hash): evaluation_record(
                evaluation
            )
            for position, evaluation in results.items()
        }
        if include_base:
            records[self.base_key] = evaluation_record(
                self.engine.evaluate_job(self.base_job, stats)
            )
        return records


def run_worker(
    spec: CampaignSpec,
    coordinator_url: str,
    *,
    stream_dir: Union[str, Path],
    worker_name: Optional[str] = None,
    wave_size: Optional[int] = None,
    output: Optional[Union[str, Path]] = None,
    cache_dir: Optional[Path] = None,
    artifact_dir: Optional[Path] = None,
    store_url: Optional[str] = None,
    store_tier: bool = False,
    store_shards: int = 1,
    poll_interval: float = 0.5,
    lease_delay: float = 0.0,
    finalize: bool = True,
) -> Dict[str, Any]:
    """Drive one worker until its campaign completes; returns a summary.

    ``stream_dir`` is this worker's private stream directory: the merged
    checkpoint is downloaded there and the finalize pass appends its own
    journal — it must not be shared between workers (event logs are
    single-writer).  ``lease_delay`` inserts a pause between grant and
    evaluation; the CI fleet job uses it to widen the window in which a
    victim worker holds a lease, so ``kill -9`` reliably lands mid-wave.
    ``finalize=False`` skips the local report derivation (a pure compute
    drone; some other worker renders the report).
    """
    if store_url is not None and (cache_dir is not None or artifact_dir is not None):
        raise ExplorationError(
            "store_url replaces the local stores; drop cache_dir/artifact_dir"
        )
    stream_dir = Path(stream_dir)
    client = CoordinatorClient(coordinator_url)
    store_backend = None
    if store_url is not None:
        store_backend = open_store_backend(store_url, tiered=store_tier)
        artifact_store = ArtifactStore(backend=store_backend)
    else:
        artifact_store = ArtifactStore(artifact_dir, shards=store_shards)
    mapper = RSPMapper(store=artifact_store)
    config = ExecutorConfig(chunk_size=spec.chunk_size)

    submission = client.submit(spec.as_payload(), wave_size)
    campaign_id = submission["campaign"]
    registration = client.register(campaign_id, worker_name)
    worker_id = registration["worker"]
    heartbeat_interval = float(
        registration.get("policy", {}).get("heartbeat_interval", 5.0)
    )

    contexts: Dict[str, _SuiteContext] = {}
    stats = EngineRunStats(chunk_size=config.chunk_size)
    tracer = get_tracer()
    waves_completed = 0
    records_reported = 0
    leases_lost = 0
    try:
        while True:
            grant = client.lease(campaign_id, worker_id)
            status = grant.get("status")
            if status == "complete":
                break
            if status == "failed":
                raise ExplorationError(
                    f"campaign {campaign_id} failed: {grant.get('detail', 'unknown')}"
                )
            if status == "wait":
                time.sleep(
                    max(0.05, min(poll_interval, float(grant.get("retry_after", poll_interval))))
                )
                continue
            if status != "leased":
                raise ExplorationError(f"unexpected lease response: {grant!r}")
            lease_id = grant["lease"]
            suite = grant["suite"]
            wave_index = int(grant["wave"])
            indices = [int(index) for index in grant.get("indices", [])]
            pump = _HeartbeatPump(client, campaign_id, lease_id, heartbeat_interval)
            pump.start()
            started = time.perf_counter()
            try:
                if lease_delay > 0:
                    time.sleep(lease_delay)
                context = contexts.get(suite)
                if context is None:
                    context = _SuiteContext(
                        suite, spec, mapper, config, cache_dir, store_backend, store_shards
                    )
                    contexts[suite] = context
                records = context.evaluate_wave(
                    indices, bool(grant.get("include_base")), stats
                )
            finally:
                pump.stop()
            outcome = client.complete(campaign_id, lease_id, suite, wave_index, records)
            if pump.lost or not outcome.get("lease_valid", False):
                leases_lost += 1
            waves_completed += 1
            records_reported += len(records)
            if tracer.active:
                tracer.record_span(
                    "worker.lease",
                    kind="lease",
                    duration_s=time.perf_counter() - started,
                    status=STATUS_OK if outcome.get("lease_valid") else STATUS_ERROR,
                    campaign=campaign_id,
                    worker=worker_id,
                    suite=suite,
                    wave=wave_index,
                    lease=lease_id,
                    jobs=len(indices),
                    duplicate=bool(outcome.get("duplicate")),
                )
    finally:
        if store_backend is not None:
            store_backend.close()

    final_status = client.status(campaign_id)
    summary: Dict[str, Any] = {
        "campaign": campaign_id,
        "worker": worker_id,
        "waves_completed": waves_completed,
        "records_reported": records_reported,
        "leases_lost": leases_lost,
        "requeues": final_status.get("requeues", 0),
        "evaluated": stats.evaluated,
        "cache_hits": stats.cache_hits,
    }
    if finalize:
        summary["report_path"] = str(output) if output is not None else None
        summary["report"] = _finalize(
            spec,
            client,
            campaign_id,
            stream_dir,
            output=output,
            mapper=mapper,
            cache_dir=cache_dir,
            store_url=store_url,
            store_tier=store_tier,
            store_shards=store_shards,
        )
    client.close()
    return summary


def _finalize(
    spec: CampaignSpec,
    client: CoordinatorClient,
    campaign_id: str,
    stream_dir: Path,
    *,
    output: Optional[Union[str, Path]],
    mapper: RSPMapper,
    cache_dir: Optional[Path],
    store_url: Optional[str],
    store_tier: bool,
    store_shards: int,
) -> CampaignReport:
    """Derive the canonical report from the coordinator's merged checkpoint.

    The downloaded checkpoint serves *every* job of the resume run, so
    this computes no evaluations — it replays the deterministic tail of a
    campaign (feasibility, Pareto front, knee point, report assembly) and
    produces bytes identical to an uninterrupted serial run.
    """
    document = client.checkpoint(campaign_id)
    fingerprint = campaign_fingerprint(spec)
    if document.get("fingerprint") != fingerprint:
        raise ExplorationError(
            f"coordinator checkpoint fingerprint {document.get('fingerprint')!r} "
            f"does not match this worker's spec ({fingerprint!r})"
        )
    stream_dir.mkdir(parents=True, exist_ok=True)
    (stream_dir / CHECKPOINT_FILENAME).write_text(
        json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    runner = CampaignRunner(
        spec,
        mapper=mapper,
        cache_dir=cache_dir,
        store_url=store_url,
        store_tier=store_tier,
        store_shards=store_shards,
        stream_dir=stream_dir,
        resume=True,
    )
    try:
        report, _ = runner.run()
    finally:
        runner.close()
    if output is not None:
        write_stream_report(output, report)
    return report
