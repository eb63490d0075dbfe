"""RemoteBackend: the store protocol over HTTP, retries, degraded mode."""

from __future__ import annotations

import hashlib
import socket

import pytest

from repro.service import StoreServer
from repro.store import (
    PickleDirBackend,
    RemoteBackend,
    ShardedJsonlBackend,
    StoreJanitor,
    StoreServiceError,
    TieredBackend,
    open_store_backend,
)


def hex_key(index: int) -> str:
    return hashlib.sha256(str(index).encode()).hexdigest()


@pytest.fixture()
def server(tmp_path):
    with StoreServer(PickleDirBackend(tmp_path / "store")) as live:
        yield live


@pytest.fixture()
def client(server):
    backend = RemoteBackend(server.url, strict=True)
    yield backend
    backend.close()


# ----------------------------------------------------------------------
# Protocol over the wire
# ----------------------------------------------------------------------
def test_full_protocol_round_trip(client):
    key = hex_key(1)
    assert client.get("ns", key) == (False, None)
    assert not client.contains("ns", key)

    client.put("ns", key, {"v": 7})
    assert client.contains("ns", key)
    assert client.get("ns", key) == (True, {"v": 7})
    assert client.counters.hits == 1 and client.counters.misses == 1

    assert client.delete("ns", key)
    assert not client.delete("ns", key)
    assert not client.contains("ns", key)


def test_arbitrary_picklables_survive(client):
    """Artifacts are structured objects; they travel as opaque pickles."""
    value = {"nested": (1, 2), 3: "int-key", "set": frozenset({"a"})}
    client.put("stage", hex_key(2), value)
    hit, returned = client.get("stage", hex_key(2))
    assert hit and returned == value


def test_batch_round_trip_and_counters(client):
    records = {hex_key(i): {"v": i} for i in range(10)}
    assert client.put_many("batch", records) == 10
    # Re-putting is deduplicated by the server's content-hash semantics.
    assert client.put_many("batch", dict(list(records.items())[:3])) == 0

    found = client.get_many("batch", list(records) + [hex_key(42)])
    assert found == records
    assert client.counters.hits == 10
    assert client.counters.misses == 1
    assert client.get_many("batch", []) == {}


def test_scan_stats_and_len(client):
    for index in range(5):
        client.put("ns", hex_key(index), {"v": index})
    entries = list(client.scan())
    assert len(entries) == 5
    assert {entry.namespace for entry in entries} == {"ns"}
    snapshot = client.stats()
    assert snapshot.backend == "remote"
    assert snapshot.entries == 5
    assert snapshot.stores == 5
    assert len(client) == 5


def test_remote_janitor_single_round_trip(client):
    for index in range(6):
        client.put("ns", hex_key(index), {"v": index})
    requests_before = client.requests
    report = StoreJanitor(client, max_age_seconds=0.0).sweep()
    assert client.requests == requests_before + 1  # one POST /janitor
    assert report.scanned == 6 and report.evicted == 6
    assert len(list(client.scan())) == 0


def test_compact_delegates_to_the_server(client):
    client.put("ns", hex_key(1), {"v": 1})
    report = client.compact()
    assert report.entries_kept == 1


def test_open_store_backend_helper(server):
    remote = open_store_backend(server.url)
    assert isinstance(remote, RemoteBackend)
    tiered = open_store_backend(server.url, tiered=True)
    assert isinstance(tiered, TieredBackend)
    tiered.close()
    remote.close()


def test_rejects_non_http_urls():
    with pytest.raises(ValueError, match="http"):
        RemoteBackend("ftp://somewhere")
    with pytest.raises(ValueError, match="http"):
        RemoteBackend("not-a-url")


# ----------------------------------------------------------------------
# Retry / backoff
# ----------------------------------------------------------------------
def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_strict_client_retries_with_backoff_then_raises():
    sleeps = []
    client = RemoteBackend(
        f"http://127.0.0.1:{_free_port()}",
        strict=True,
        retries=3,
        backoff=0.01,
        sleep=sleeps.append,
    )
    with pytest.raises(StoreServiceError, match="after 4 attempts"):
        client.get("ns", hex_key(1))
    assert sleeps == [0.01, 0.02, 0.04]  # exponential backoff
    assert client.transport_retries == 3


def test_stale_keepalive_connection_is_reopened(tmp_path):
    """A server restart must not poison the client's persistent socket."""
    backend = PickleDirBackend(tmp_path / "store")
    first = StoreServer(backend).start()
    port = first.port
    client = RemoteBackend(first.url, strict=True, backoff=0.0)
    client.put("ns", hex_key(1), {"v": 1})
    first.close()

    second = StoreServer(backend, port=port).start()
    try:
        assert client.get("ns", hex_key(1)) == (True, {"v": 1})
    finally:
        client.close()
        second.close()


# ----------------------------------------------------------------------
# Degraded (offline) mode
# ----------------------------------------------------------------------
def test_offline_degradation_and_recovery(tmp_path):
    clock = [0.0]
    url = f"http://127.0.0.1:{_free_port()}"
    client = RemoteBackend(
        url,
        retries=1,
        backoff=0.0,
        offline_grace=10.0,
        sleep=lambda _: None,
        clock=lambda: clock[0],
    )
    # Nothing is listening: every operation degrades instead of raising.
    assert client.get("ns", hex_key(1)) == (False, None)
    assert client.offline
    client.put("ns", hex_key(1), {"v": 1})
    assert client.dropped_puts == 1
    assert client.put_many("ns", {hex_key(2): {"v": 2}}) == 0
    assert client.dropped_puts == 2
    assert client.get_many("ns", [hex_key(3)]) == {}
    assert list(client.scan()) == []
    assert not client.contains("ns", hex_key(1))
    assert not client.delete("ns", hex_key(1))
    assert client.sweep_remote(0.0).scanned == 0
    assert client.stats().entries == 0
    # Inside the grace window the transport is never touched again.
    retries_during_window = client.transport_retries
    client.get("ns", hex_key(4))
    assert client.transport_retries == retries_during_window
    assert client.offline_trips == 1

    # Grace expires, the server appears: service resumes transparently.
    clock[0] = 11.0
    parts = url.rsplit(":", 1)
    with StoreServer(PickleDirBackend(tmp_path / "store"), port=int(parts[1])):
        client.put("ns", hex_key(5), {"v": 5})
        assert client.get("ns", hex_key(5)) == (True, {"v": 5})
        assert not client.offline
    client.close()


def test_non_strict_client_survives_server_rejections(tmp_path):
    """A records-only server rejecting binary payloads must not kill a
    lenient worker: the put degrades to a counted drop."""
    with StoreServer(ShardedJsonlBackend(tmp_path / "records.jsonl")) as live:
        client = RemoteBackend(live.url)  # non-strict
        client.put("stage", hex_key(1), object())  # pickled -> 415
        assert client.dropped_puts == 1
        assert client.put_many("stage", {hex_key(2): object()}) == 0
        assert client.dropped_puts == 2
        # JSON records still flow (returned with the JSONL backend's
        # reserved bookkeeping fields added), and strict mode still raises.
        client.put("ns", hex_key(3), {"v": 3})
        hit, record = client.get("ns", hex_key(3))
        assert hit and record["v"] == 3
        client.close()
        strict = RemoteBackend(live.url, strict=True)
        with pytest.raises(StoreServiceError, match="rejected PUT"):
            strict.put("stage", hex_key(4), object())
        strict.close()


def test_head_errors_do_not_desynchronise_keepalive(server):
    """HEAD responses must stay bodyless even on error paths."""
    import http.client

    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        for _ in range(2):  # repeated to prove the socket stays in sync
            connection.request("HEAD", "/stats")  # 405 via the error path
            response = connection.getresponse()
            assert response.read() == b""
            assert response.status == 405
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert b"ok" in response.read()
    finally:
        connection.close()


def test_offline_trips_count_one_per_outage_under_contention():
    """The offline window is checked and tripped under one lock: a stampede
    of threads hitting a dead server opens exactly one degraded window
    (and a second outage after the grace expires opens exactly one more)."""
    import threading

    clock = [0.0]
    client = RemoteBackend(
        f"http://127.0.0.1:{_free_port()}",
        retries=1,
        backoff=0.0,
        offline_grace=10.0,
        sleep=lambda _: None,
        clock=lambda: clock[0],
    )

    def stampede():
        barrier = threading.Barrier(8)

        def hammer(index):
            barrier.wait(timeout=10.0)
            for attempt in range(5):
                client.get("ns", hex_key(index * 10 + attempt))

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

    stampede()
    assert client.offline
    assert client.offline_trips == 1

    clock[0] = 11.0  # grace expired; the server is still dead
    stampede()
    assert client.offline_trips == 2
    client.close()
