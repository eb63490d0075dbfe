"""HTTP client backend: the store protocol over a remote store service.

``RemoteBackend`` speaks to a :class:`repro.service.server.StoreServer`
and implements the full :class:`~repro.store.backend.StoreBackend`
protocol, so an :class:`~repro.engine.cache.EvaluationCache` or
:class:`~repro.engine.artifacts.ArtifactStore` pointed at one URL shares
a warm store with the other processes or machines sharing one store.

Transport
---------
Plain stdlib ``http.client`` with one persistent keep-alive connection
*per thread* (``urllib.request`` opens a fresh socket per call, which is
exactly the overhead the batch endpoints exist to avoid).  Transient
transport failures are retried with exponential backoff; a stale
keep-alive socket (the server restarted) is transparently reopened.

Degraded mode
-------------
A campaign must not die with its store service.  After the retry
budget of a request is exhausted the backend goes *offline* for
``offline_grace`` seconds: reads miss, writes are dropped (and counted
in :attr:`RemoteBackend.dropped_puts`), scans are empty — the campaign
keeps running on recomputation, exactly as with a cold local cache.  The
first request after the grace window probes the server again and a
success restores normal service.  Construct with ``strict=True`` to get
:class:`StoreServiceError` instead of degradation (useful in tests and
one-off scripts where silence would hide a typo'd URL).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import quote, urlsplit

from repro.store.backend import (
    CompactionReport,
    StoreBackend,
    StoreEntry,
    StoreStats,
    _Counters,
)
from repro.store.janitor import JanitorReport
from repro.store.tiered import TieredBackend
from repro.store.wire import (
    WireError,
    decode_body,
    decode_cell,
    encode_cell,
    encode_value,
)
from repro.trace.spans import STATUS_ERROR, STATUS_OK, get_tracer

#: Transport-level failures that trigger a retry (and eventually the
#: degraded mode).  HTTP error *statuses* are not in this set — a 404 is
#: an answer, not an outage.
_TRANSPORT_ERRORS = (
    ConnectionError,
    socket.timeout,
    TimeoutError,
    http.client.HTTPException,
    OSError,
)


class StoreServiceError(RuntimeError):
    """The store service is unreachable or answered outside the contract."""


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """An HTTPConnection with Nagle disabled.

    ``http.client`` sends headers and body in separate ``send`` calls;
    with Nagle on, the body segment can sit behind the peer's delayed ACK
    for tens of milliseconds — fatal for the batch endpoints whose whole
    point is one fast round trip per wave.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _quote(component: str) -> str:
    """Path-segment quoting: empty namespaces and odd characters survive."""
    return quote(component, safe="")


def _endpoint_of(path: str) -> str:
    """Coarse endpoint label of a request path (for trace spans).

    Keys and namespaces are stripped so all item traffic aggregates under
    one name instead of one span-name per key.
    """
    path = path.split("?", 1)[0]
    if "/k/" in path:
        return "item"
    for endpoint in ("mget", "mput", "scan", "janitor", "healthz", "stats"):
        if path.endswith("/" + endpoint) or path == "/" + endpoint:
            return endpoint
    return "other"


class RemoteBackend(StoreBackend):
    """The store protocol over HTTP.

    Parameters
    ----------
    url:
        Service base URL, e.g. ``http://127.0.0.1:8731`` (an optional path
        prefix is honoured).
    timeout:
        Socket timeout per request, seconds.
    retries:
        Transport retries per request beyond the first attempt.
    backoff:
        Initial retry delay, doubled per attempt.
    offline_grace:
        How long the backend stays offline after a request exhausts its
        retries; ``strict=True`` disables degradation entirely.
    sleep / clock:
        Injectable for deterministic retry/degradation tests.  ``clock``
        must be monotonic.
    """

    name = "remote"

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.05,
        offline_grace: float = 5.0,
        strict: bool = False,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"store service URLs must be http://host[:port][/prefix], got {url!r}")
        self.url = url
        self._host = parts.hostname
        self._port = parts.port or 80
        self._prefix = parts.path.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.offline_grace = offline_grace
        self.strict = strict
        self._sleep = sleep
        self._clock = clock
        self._local = threading.local()
        self._connections: List[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()
        # Degraded-mode state is shared across every request thread; the
        # lock keeps a burst of concurrent failures from double-counting
        # offline_trips or tearing the grace window (one thread extending
        # it while another clears it).
        self._state_lock = threading.Lock()
        self._offline_until: Optional[float] = None
        self.counters = _Counters()
        #: Completed HTTP requests (any status), transport retries taken,
        #: and puts dropped while offline.
        self.requests = 0
        self.transport_retries = 0
        self.dropped_puts = 0
        self.offline_trips = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _NoDelayHTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            try:
                connection.close()
            except Exception:
                pass
            with self._connections_lock:
                if connection in self._connections:
                    self._connections.remove(connection)
            self._local.connection = None

    @property
    def offline(self) -> bool:
        """Whether the backend is currently in the degraded window."""
        with self._state_lock:
            return self._offline_until is not None and self._clock() < self._offline_until

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request with keep-alive, retry/backoff and offline tracking.

        Returns ``(status, lowercase headers, body)``; raises
        :class:`StoreServiceError` when the transport is down (after
        marking the offline window unless ``strict``).
        """
        if self.offline:
            raise StoreServiceError(f"store service {self.url} is offline (degraded mode)")
        tracer = get_tracer()
        started = time.perf_counter() if tracer.active else 0.0
        headers = {"Connection": "keep-alive"}
        if content_type is not None:
            headers["Content-Type"] = content_type
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            connection = self._connection()
            try:
                connection.request(method, self._prefix + path, body=body, headers=headers)
                response = connection.getresponse()
                payload = response.read()
            except _TRANSPORT_ERRORS as error:
                last_error = error
                self._drop_connection()
                if attempt < self.retries:
                    self.transport_retries += 1
                    self._sleep(self.backoff * (2**attempt))
                continue
            self.requests += 1
            with self._state_lock:
                self._offline_until = None
            response_headers = {name.lower(): value for name, value in response.getheaders()}
            if tracer.active:
                tracer.record_span(
                    "store.request",
                    kind="request",
                    duration_s=time.perf_counter() - started,
                    status=STATUS_ERROR if response.status >= 500 else STATUS_OK,
                    method=method,
                    endpoint=_endpoint_of(path),
                    http_status=response.status,
                    attempts=attempt + 1,
                )
            return response.status, response_headers, payload
        if tracer.active:
            tracer.record_span(
                "store.request",
                kind="request",
                duration_s=time.perf_counter() - started,
                status=STATUS_ERROR,
                method=method,
                endpoint=_endpoint_of(path),
                attempts=self.retries + 1,
                error=type(last_error).__name__ if last_error is not None else None,
            )
        if not self.strict:
            with self._state_lock:
                # One *trip* per outage, not per failing thread: only the
                # request that finds no active window opens one.  Requests
                # failing concurrently (or inside the window — strict=False
                # callers that raced past the offline check) just ride the
                # window that is already open.
                now = self._clock()
                if self._offline_until is None or now >= self._offline_until:
                    self._offline_until = now + self.offline_grace
                    self.offline_trips += 1
        raise StoreServiceError(
            f"store service {self.url} unreachable after {self.retries + 1} attempts: {last_error}"
        ) from last_error

    def _item_path(self, namespace: str, key: str) -> str:
        return f"/ns/{_quote(namespace)}/k/{_quote(key)}"

    def close(self) -> None:
        """Close every keep-alive connection this backend opened."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except Exception:
                pass

    def __enter__(self) -> "RemoteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Protocol: get / put / delete / scan / stats / compact
    # ------------------------------------------------------------------
    def contains(self, namespace: str, key: str) -> bool:
        """Availability check (HEAD) that counts neither a hit nor a miss."""
        try:
            status, _, _ = self._request("HEAD", self._item_path(namespace, key))
        except StoreServiceError:
            if self.strict:
                raise
            return False
        return status == 200

    def get(self, namespace: str, key: str) -> Tuple[bool, Any]:
        try:
            status, headers, body = self._request("GET", self._item_path(namespace, key))
        except StoreServiceError:
            if self.strict:
                raise
            self.counters.misses += 1
            return False, None
        if status == 200:
            try:
                value = decode_body(
                    headers.get("content-type", ""), body, unpickle=True
                )
            except WireError:
                self.counters.corrupt += 1
                self.counters.misses += 1
                return False, None
            self.counters.hits += 1
            return True, value
        self.counters.misses += 1
        return False, None

    def put(self, namespace: str, key: str, value: Any) -> None:
        content_type, body = encode_value(value)
        try:
            status, _, payload = self._request(
                "PUT", self._item_path(namespace, key), body=body, content_type=content_type
            )
            if status >= 400:
                raise StoreServiceError(
                    f"store service rejected PUT {namespace}/{key[:16]}: "
                    f"{status} {payload[:200]!r}"
                )
        except StoreServiceError:
            # A rejection (e.g. a binary artifact offered to a
            # records-only server) degrades like an outage: the value is
            # a recomputable, the campaign must not die for it.
            if self.strict:
                raise
            self.dropped_puts += 1
            return
        self.counters.stores += 1

    def delete(self, namespace: str, key: str) -> bool:
        try:
            status, _, _ = self._request("DELETE", self._item_path(namespace, key))
        except StoreServiceError:
            if self.strict:
                raise
            return False
        if status == 200 or status == 204:
            self.counters.evicted += 1
            return True
        return False

    def get_many(self, namespace: str, keys: Sequence[str]) -> Dict[str, Any]:
        """The read hot path: one ``mget`` round trip per campaign wave."""
        if not keys:
            return {}
        request_body = json.dumps({"keys": list(keys)}).encode("utf-8")
        try:
            status, _, body = self._request(
                "POST",
                f"/ns/{_quote(namespace)}/mget",
                body=request_body,
                content_type="application/json",
            )
            if status != 200:
                raise StoreServiceError(f"mget failed: {status} {body[:200]!r}")
        except StoreServiceError:
            if self.strict:
                raise
            self.counters.misses += len(keys)
            return {}
        envelope = json.loads(body.decode("utf-8"))
        found: Dict[str, Any] = {}
        for key, cell in envelope.get("hits", {}).items():
            try:
                found[key] = decode_cell(cell, unpickle=True)
                self.counters.hits += 1
            except WireError:
                self.counters.corrupt += 1
                self.counters.misses += 1
        self.counters.misses += sum(1 for key in keys if key not in envelope.get("hits", {}))
        return found

    def put_many(self, namespace: str, records: Mapping[str, Any]) -> int:
        """The write hot path: one ``mput`` round trip per campaign wave."""
        if not records:
            return 0
        envelope = {"records": {key: encode_cell(value) for key, value in records.items()}}
        request_body = json.dumps(envelope).encode("utf-8")
        try:
            status, _, body = self._request(
                "POST",
                f"/ns/{_quote(namespace)}/mput",
                body=request_body,
                content_type="application/json",
            )
            if status != 200:
                raise StoreServiceError(f"mput failed: {status} {body[:200]!r}")
        except StoreServiceError:
            if self.strict:
                raise
            self.dropped_puts += len(records)
            return 0
        stored = int(json.loads(body.decode("utf-8")).get("stored", 0))
        self.counters.stores += stored
        return stored

    def scan(self, namespace: Optional[str] = None) -> Iterator[StoreEntry]:
        path = "/scan" if namespace is None else f"/scan?ns={_quote(namespace)}"
        try:
            status, _, body = self._request("GET", path)
            if status != 200:
                raise StoreServiceError(f"scan failed: {status} {body[:200]!r}")
        except StoreServiceError:
            if self.strict:
                raise
            return
        for entry in json.loads(body.decode("utf-8")).get("entries", []):
            yield StoreEntry(
                namespace=entry["namespace"],
                key=entry["key"],
                size_bytes=int(entry.get("size_bytes", 0)),
                age_seconds=float(entry.get("age_seconds", 0.0)),
            )

    def server_stats(self) -> Optional[dict]:
        """The raw ``/stats`` document, or ``None`` while offline."""
        try:
            status, _, body = self._request("GET", "/stats")
            if status != 200:
                raise StoreServiceError(f"stats failed: {status} {body[:200]!r}")
        except StoreServiceError:
            if self.strict:
                raise
            return None
        return json.loads(body.decode("utf-8"))

    def stats(self) -> StoreStats:
        """Server entry/disk totals fused with this client's own counters."""
        document = self.server_stats()
        server = (document or {}).get("backend", {})
        return StoreStats(
            backend=self.name,
            entries=int(server.get("entries", 0)),
            disk_files=int(server.get("disk_files", 0)),
            disk_bytes=int(server.get("disk_bytes", 0)),
            hits=self.counters.hits,
            misses=self.counters.misses,
            stores=self.counters.stores,
            corrupt=self.counters.corrupt,
            evicted=self.counters.evicted,
        )

    def __len__(self) -> int:
        return self.stats().entries

    def compact(self) -> CompactionReport:
        return self.sweep_remote(None, compact=True).compaction

    def sweep_remote(
        self, max_age_seconds: Optional[float] = None, compact: bool = True
    ) -> JanitorReport:
        """One server-side janitor pass (GC + compaction) in one request.

        :class:`~repro.store.janitor.StoreJanitor` delegates here, so the
        engine's post-campaign janitor costs one round trip instead of a
        scan-and-delete conversation.
        """
        request_body = json.dumps(
            {"max_age": max_age_seconds, "compact": compact}
        ).encode("utf-8")
        try:
            status, _, body = self._request(
                "POST", "/janitor", body=request_body, content_type="application/json"
            )
            if status != 200:
                raise StoreServiceError(f"janitor failed: {status} {body[:200]!r}")
        except StoreServiceError:
            if self.strict:
                raise
            return JanitorReport()
        document = json.loads(body.decode("utf-8"))
        return JanitorReport(
            scanned=int(document.get("scanned", 0)),
            evicted=int(document.get("evicted", 0)),
            evicted_bytes=int(document.get("evicted_bytes", 0)),
            compaction=CompactionReport(**document.get("compaction", {})),
        )

    @property
    def dropped_writes(self) -> int:
        """Writes this client dropped in degraded mode (puts and mput records).

        These values never reached the server: campaigns that ran through
        an outage report them so an operator knows the shared store is
        *missing* results that look locally complete.
        """
        return self.dropped_puts

    def remote_stats(self) -> Dict[str, object]:
        """Client-side transport counters for reports and the CLI."""
        return {
            "url": self.url,
            "requests": self.requests,
            "transport_retries": self.transport_retries,
            "dropped_puts": self.dropped_puts,
            "offline_trips": self.offline_trips,
            "offline": self.offline,
        }


def open_store_backend(url: str, *, tiered: bool = False) -> StoreBackend:
    """A remote backend for ``url``, optionally fronted by a memory tier.

    Closing the returned backend releases everything it opened: the
    tier's flusher and the remote's keep-alive connections.
    """
    remote = RemoteBackend(url)
    return TieredBackend(remote) if tiered else remote
