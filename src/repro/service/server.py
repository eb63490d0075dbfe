"""The store service: any local backend exposed over HTTP.

``StoreServer`` wraps one :class:`~repro.store.backend.StoreBackend` in a
stdlib :class:`~http.server.ThreadingHTTPServer`, so processes or machines
sharing one store all read and write it over HTTP.  The surface is the
store protocol, one route per operation:

====================================  =======================================
``GET/HEAD /ns/{ns}/k/{key}``         ``get``/``contains`` (content-hash ETag,
                                      ``If-None-Match`` revalidation → 304)
``PUT /ns/{ns}/k/{key}``              ``put`` (JSON or opaque binary body)
``DELETE /ns/{ns}/k/{key}``           ``delete``
``POST /ns/{ns}/mget``                batch ``get_many`` — one round trip per
                                      campaign wave (the read hot path)
``POST /ns/{ns}/mput``                batch ``put_many`` (the write hot path)
``GET /scan[?ns=...]``                ``scan`` (entry metadata for GC)
``GET /stats``                        backend snapshot + per-endpoint request
                                      counters + uptime
``GET /healthz``                      cheap liveness probe (no disk walk)
``POST /janitor``                     one GC + compaction pass
====================================  =======================================

Error mapping: ``400`` malformed request (a ``Content-Length`` that is
not a non-negative integer included, and any namespace or key that is
not a single path component), ``404`` miss or unknown route,
``405`` wrong method, ``413`` a body over :data:`MAX_BODY_BYTES`, ``415``
a value the backend's domain rejects (e.g. binary into a JSONL store),
``500`` anything the backend raises — always with a JSON ``{"error": ...}``
body.

Handler threads serialise on one lock around every backend call: the
local backends' in-memory maps are not thread-safe, and the batch
endpoints amortise HTTP so thoroughly that lock contention is noise.
Binary payloads are stored as opaque ``bytes`` — the server never
unpickles client data (see :mod:`repro.store.wire`).
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional
from urllib.parse import parse_qs, unquote, urlsplit

from repro.store.backend import StoreBackend
from repro.store.janitor import StoreJanitor
from repro.trace.spans import STATUS_ERROR, STATUS_OK, get_tracer
from repro.store.wire import (
    JSON_CONTENT_TYPE,
    WireError,
    decode_body,
    decode_cell,
    encode_cell,
    etag_of,
    server_body,
)

_ITEM_ROUTE = re.compile(r"^/ns/([^/]*)/k/([^/]+)$")
_BATCH_ROUTE = re.compile(r"^/ns/([^/]*)/(mget|mput)$")


def _endpoint_label(raw_path: str) -> str:
    """Coarse endpoint name of a request path (access log / trace spans)."""
    path = urlsplit(raw_path).path
    if _ITEM_ROUTE.match(path):
        return "item"
    batch = _BATCH_ROUTE.match(path)
    if batch:
        return batch.group(2)
    if path in ("/healthz", "/stats", "/scan", "/janitor"):
        return path[1:]
    return "other"

#: Largest request body the server accepts (a campaign wave of evaluation
#: records is a few hundred KB; artifacts run to a few MB).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _HTTPError(Exception):
    """Internal: raised by handlers to produce a mapped error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class StoreService:
    """The backend, its lock, and the request counters — handler-agnostic.

    ``access_log`` is an optional per-request hook receiving
    ``(method, endpoint, status, seconds)`` after every dispatched request
    (exceptions it raises are swallowed — observability must never take
    the service down).  The same observations are mirrored into the
    installed tracer as ``service.request`` spans when tracing is on.
    """

    def __init__(self, backend: StoreBackend, access_log=None) -> None:
        self.backend = backend
        self.access_log = access_log
        self.lock = threading.RLock()
        self.started = time.time()
        self.requests: Dict[str, int] = {}

    def count(self, endpoint: str) -> None:
        with self.lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def observe(self, method: str, endpoint: str, status: int, seconds: float) -> None:
        """One dispatched request: feed the tracer and the access log."""
        tracer = get_tracer()
        if tracer.active:
            tracer.record_span(
                "service.request",
                kind="request",
                duration_s=seconds,
                status=STATUS_ERROR if status >= 500 else STATUS_OK,
                method=method,
                endpoint=endpoint,
                http_status=status,
            )
        if self.access_log is not None:
            try:
                self.access_log(method, endpoint, status, seconds)
            except Exception:
                pass

    def stats_document(self) -> dict:
        with self.lock:
            snapshot = asdict(self.backend.stats())
            return {
                "backend": snapshot,
                "requests": dict(self.requests),
                "uptime_seconds": round(time.time() - self.started, 3),
            }

    def janitor_document(self, max_age: Optional[float], compact: bool) -> dict:
        with self.lock:
            report = StoreJanitor(self.backend, max_age_seconds=max_age).sweep(
                compact=compact
            )
        return asdict(report)


class StoreRequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request onto the service's backend."""

    #: Keep-alive requires 1.1 (every response carries Content-Length).
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: without it, Nagle + delayed ACK stalls every response
    #: whose headers and body leave in separate sends by tens of ms.
    disable_nagle_algorithm = True
    #: Bound to the owning server's service by :class:`StoreServer`.
    service: StoreService
    #: Status of the response most recently written by :meth:`_send`
    #: (reset per dispatch; 0 when the client vanished before a response).
    last_status: int = 0

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # a store service handling one wave per second would drown a terminal.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    def _send(
        self,
        status: int,
        body: bytes = b"",
        content_type: str = JSON_CONTENT_TYPE,
        etag: Optional[str] = None,
        head_only: bool = False,
    ) -> None:
        self.last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if etag is not None:
            self.send_header("ETag", etag)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if body and not head_only:
            self.wfile.write(body)

    def _send_json(self, status: int, document: object) -> None:
        self._send(status, json.dumps(document).encode("utf-8"))

    def _send_error_json(self, status: int, message: str, head_only: bool = False) -> None:
        # HEAD responses are bodyless by protocol — writing the JSON
        # error would desynchronise the keep-alive connection.
        if head_only:
            return self._send(status, head_only=True)
        self._send(status, json.dumps({"error": message}).encode("utf-8"))

    def _read_body(self) -> bytes:
        # A rejected body is left unread, so the connection cannot be
        # reused for a next request.  A negative length would otherwise
        # park the handler thread reading until the client hangs up.
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise _HTTPError(400, f"malformed Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _HTTPError(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
        return self.rfile.read(length) if length else b""

    def _name(self, name: str, what: str, allow_empty: bool = False) -> str:
        """``name`` when it is safe to use as one file name under the root.

        Local backends turn namespaces and keys into paths below their
        root (:meth:`~repro.store.pickledir.PickleDirBackend.path_for`),
        so a name holding a separator or NUL, or naming ``.``/``..``,
        would reach files outside it.  The empty namespace is legal: JSONL
        clients use it.  A rejected request may leave its body unread, so
        the connection is not reused.
        """
        if (
            (not name and not allow_empty)
            or name in (".", "..")
            or any(character in name for character in "/\\\0")
        ):
            self.close_connection = True
            raise _HTTPError(400, f"invalid {what} {name!r}: not a single path component")
        return name

    def _json_body(self) -> dict:
        body = self._read_body()
        if not body:
            return {}
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"malformed JSON body: {exc}")
        if not isinstance(document, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return document

    def _dispatch(self, method: str) -> None:
        head_only = method == "HEAD"
        self.last_status = 0
        started = time.perf_counter()
        try:
            self._route(method)
        except _HTTPError as error:
            self._send_error_json(error.status, str(error), head_only=head_only)
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as error:  # backend failures map to 500
            self._send_error_json(500, f"{type(error).__name__}: {error}", head_only=head_only)
        finally:
            self.service.observe(
                method,
                _endpoint_label(self.path),
                self.last_status,
                time.perf_counter() - started,
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str) -> None:
        parts = urlsplit(self.path)
        path = parts.path
        item = _ITEM_ROUTE.match(path)
        if item:
            namespace = self._name(unquote(item.group(1)), "namespace", allow_empty=True)
            key = self._name(unquote(item.group(2)), "key")
            if method in ("GET", "HEAD"):
                return self._handle_get(namespace, key, head_only=method == "HEAD")
            if method == "PUT":
                return self._handle_put(namespace, key)
            if method == "DELETE":
                return self._handle_delete(namespace, key)
            raise _HTTPError(405, f"{method} not allowed on item routes")
        batch = _BATCH_ROUTE.match(path)
        if batch:
            if method != "POST":
                raise _HTTPError(405, f"{method} not allowed on batch routes")
            namespace = self._name(unquote(batch.group(1)), "namespace", allow_empty=True)
            operation = batch.group(2)
            if operation == "mget":
                return self._handle_mget(namespace)
            return self._handle_mput(namespace)
        if path == "/healthz" and method == "GET":
            self.service.count("healthz")
            return self._send_json(200, {"status": "ok", "backend": self.service.backend.name})
        if path == "/stats" and method == "GET":
            self.service.count("stats")
            return self._send_json(200, self.service.stats_document())
        if path == "/scan" and method == "GET":
            return self._handle_scan(parse_qs(parts.query))
        if path == "/janitor":
            if method != "POST":
                raise _HTTPError(405, "janitor runs via POST")
            return self._handle_janitor()
        if path in ("/healthz", "/stats", "/scan"):
            raise _HTTPError(405, f"{method} not allowed on {path}")
        raise _HTTPError(404, f"no route for {path}")

    # ------------------------------------------------------------------
    # Item routes
    # ------------------------------------------------------------------
    def _handle_get(self, namespace: str, key: str, head_only: bool) -> None:
        self.service.count("head" if head_only else "get")
        with self.service.lock:
            if head_only:
                hit = self.service.backend.contains(namespace, key)
                value = None
            else:
                hit, value = self.service.backend.get(namespace, key)
        if not hit:
            if head_only:
                return self._send(404, head_only=True)
            return self._send_error_json(404, f"no entry {namespace!r}/{key[:16]}")
        if head_only:
            return self._send(200, head_only=True)
        content_type, body = server_body(value)
        etag = etag_of(body)
        if self.headers.get("If-None-Match") == etag:
            return self._send(304, etag=etag)
        self._send(200, body, content_type=content_type, etag=etag)

    def _handle_put(self, namespace: str, key: str) -> None:
        self.service.count("put")
        body = self._read_body()
        try:
            value = decode_body(
                self.headers.get("Content-Type", ""), body, unpickle=False
            )
        except WireError as exc:
            status = 415 if "unsupported content type" in str(exc) else 400
            raise _HTTPError(status, str(exc))
        content_type, canonical = server_body(value)
        try:
            with self.service.lock:
                self.service.backend.put(namespace, key, value)
        except TypeError as exc:
            # The backend's value domain rejected the payload (e.g. binary
            # into a JSONL store).
            raise _HTTPError(415, str(exc))
        self._send(204, etag=etag_of(canonical))

    def _handle_delete(self, namespace: str, key: str) -> None:
        self.service.count("delete")
        with self.service.lock:
            removed = self.service.backend.delete(namespace, key)
        if not removed:
            return self._send_error_json(404, f"no entry {namespace!r}/{key[:16]}")
        self._send(204)

    # ------------------------------------------------------------------
    # Batch routes (the hot path)
    # ------------------------------------------------------------------
    def _handle_mget(self, namespace: str) -> None:
        self.service.count("mget")
        document = self._json_body()
        keys = document.get("keys")
        if not isinstance(keys, list) or not all(isinstance(key, str) for key in keys):
            raise _HTTPError(400, 'mget expects {"keys": [str, ...]}')
        for key in keys:
            self._name(key, "key")
        with self.service.lock:
            found = self.service.backend.get_many(namespace, keys)
        self._send_json(
            200,
            {
                "hits": {key: encode_cell(value) for key, value in found.items()},
                "misses": [key for key in keys if key not in found],
            },
        )

    def _handle_mput(self, namespace: str) -> None:
        self.service.count("mput")
        document = self._json_body()
        records = document.get("records")
        if not isinstance(records, dict):
            raise _HTTPError(400, 'mput expects {"records": {key: cell, ...}}')
        for key in records:
            self._name(key, "key")
        try:
            decoded = {
                key: decode_cell(cell, unpickle=False) for key, cell in records.items()
            }
        except WireError as exc:
            raise _HTTPError(400, str(exc))
        try:
            with self.service.lock:
                stored = self.service.backend.put_many(namespace, decoded)
        except TypeError as exc:
            raise _HTTPError(415, str(exc))
        self._send_json(200, {"stored": stored, "received": len(decoded)})

    # ------------------------------------------------------------------
    # Maintenance routes
    # ------------------------------------------------------------------
    def _handle_scan(self, query: Dict[str, list]) -> None:
        self.service.count("scan")
        namespace = unquote(query["ns"][0]) if "ns" in query else None
        with self.service.lock:
            entries = [asdict(entry) for entry in self.service.backend.scan(namespace)]
        self._send_json(200, {"entries": entries})

    def _handle_janitor(self) -> None:
        self.service.count("janitor")
        document = self._json_body()
        max_age = document.get("max_age")
        if max_age is not None:
            try:
                max_age = float(max_age)
            except (TypeError, ValueError):
                raise _HTTPError(400, f"max_age must be a number, got {max_age!r}")
            if max_age < 0:
                raise _HTTPError(400, f"max_age must be non-negative, got {max_age}")
        compact = bool(document.get("compact", True))
        self._send_json(200, self.service.janitor_document(max_age, compact))

    # ------------------------------------------------------------------
    # HTTP verb entry points
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_HEAD(self) -> None:  # noqa: N802
        self._dispatch("HEAD")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


class StoreServer:
    """A :class:`ThreadingHTTPServer` serving one backend.

    ``port=0`` binds an ephemeral port (the resolved one is
    :attr:`port`).  Use as a context manager in tests — ``start()`` runs
    the accept loop on a daemon thread — or call :meth:`serve_forever`
    from a dedicated process (the ``python -m repro.service`` entry
    point).
    """

    def __init__(
        self,
        backend: StoreBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        access_log=None,
    ) -> None:
        self.service = StoreService(backend, access_log=access_log)
        handler = type(
            "BoundStoreRequestHandler", (StoreRequestHandler,), {"service": self.service}
        )
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "StoreServer":
        """Serve on a background daemon thread (test/embedded mode)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever, name="store-server", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self.httpd.serve_forever()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
