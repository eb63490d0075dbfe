"""Shared store service: the storage layer over HTTP.

One process runs ``python -m repro.service --root DIR --port N`` next to
a store directory; campaign processes or machines sharing one store
point ``--store-url http://host:N`` at it and share one warm evaluation
cache and artifact store.  The pieces:

:class:`~repro.service.server.StoreServer`
    Stdlib-only ``ThreadingHTTPServer`` exposing any local
    :class:`~repro.store.backend.StoreBackend` (item routes, batch
    ``mget``/``mput``, ``/healthz``, ``/stats``, ``/janitor``).

:class:`~repro.store.remote.RemoteBackend`
    The client: the full store protocol over keep-alive HTTP with
    retry/backoff and an offline-tolerant degraded mode.

:class:`~repro.store.tiered.TieredBackend`
    A read-through memory front with write-behind batching over any
    backend — a campaign process's local tier over the remote store.
"""

from __future__ import annotations

from repro.store.remote import RemoteBackend, StoreServiceError
from repro.store.tiered import TieredBackend
from repro.service.server import StoreRequestHandler, StoreServer, StoreService


__all__ = [
    "RemoteBackend",
    "StoreRequestHandler",
    "StoreServer",
    "StoreService",
    "StoreServiceError",
    "TieredBackend",
]
