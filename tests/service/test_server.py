"""Endpoint coverage for the HTTP store service.

Raw ``http.client`` requests against a live :class:`StoreServer` — no
RemoteBackend in the loop, so what is pinned down here is the wire
contract itself: routes, status codes, content types, ETags and the
error mapping.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import pickle
import socket

import pytest

from repro.service import StoreServer
from repro.service.server import MAX_BODY_BYTES
from repro.store import MemoryBackend, PickleDirBackend, ShardedJsonlBackend


def hex_key(index: int) -> str:
    return hashlib.sha256(str(index).encode()).hexdigest()


@pytest.fixture()
def server(tmp_path):
    with StoreServer(PickleDirBackend(tmp_path / "store")) as live:
        yield live


@pytest.fixture()
def http_request(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)

    def request(method, path, body=None, headers=None):
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload

    yield request
    connection.close()


# ----------------------------------------------------------------------
# Item routes
# ----------------------------------------------------------------------
def test_put_get_roundtrip_json(http_request):
    key = hex_key(1)
    status, headers, _ = http_request(
        "PUT",
        f"/ns/evals/k/{key}",
        body=json.dumps({"v": 41}).encode(),
        headers={"Content-Type": "application/json"},
    )
    assert status == 204
    put_etag = headers["ETag"]

    status, headers, body = http_request("GET", f"/ns/evals/k/{key}")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"v": 41}
    assert headers["ETag"] == put_etag


def test_put_get_roundtrip_binary_is_opaque(server, http_request):
    """Binary payloads are stored as the exact bytes sent, never unpickled."""
    key = hex_key(2)
    payload = b"\x80\x05definitely-not-valid-pickle"
    status, _, _ = http_request(
        "PUT",
        f"/ns/artifacts/k/{key}",
        body=payload,
        headers={"Content-Type": "application/octet-stream"},
    )
    assert status == 204
    status, headers, body = http_request("GET", f"/ns/artifacts/k/{key}")
    assert status == 200
    assert headers["Content-Type"] == "application/octet-stream"
    assert body == payload


def test_etag_revalidation_returns_304(http_request):
    key = hex_key(3)
    http_request(
        "PUT",
        f"/ns/n/k/{key}",
        body=json.dumps({"a": 1}).encode(),
        headers={"Content-Type": "application/json"},
    )
    _, headers, _ = http_request("GET", f"/ns/n/k/{key}")
    etag = headers["ETag"]
    assert etag.startswith('"') and etag.endswith('"')

    status, headers, body = http_request(
        "GET", f"/ns/n/k/{key}", headers={"If-None-Match": etag}
    )
    assert status == 304
    assert body == b""


def test_head_reports_presence_without_counting(server, http_request):
    key = hex_key(4)
    status, _, _ = http_request("HEAD", f"/ns/n/k/{key}")
    assert status == 404
    http_request(
        "PUT",
        f"/ns/n/k/{key}",
        body=b"{}",
        headers={"Content-Type": "application/json"},
    )
    status, _, _ = http_request("HEAD", f"/ns/n/k/{key}")
    assert status == 200
    # contains is an availability check: no hit/miss was recorded.
    assert server.service.backend.counters.hits == 0
    assert server.service.backend.counters.misses == 0


def test_get_miss_and_delete(http_request):
    key = hex_key(5)
    status, _, body = http_request("GET", f"/ns/n/k/{key}")
    assert status == 404
    assert "error" in json.loads(body)

    http_request(
        "PUT", f"/ns/n/k/{key}", body=b"{}", headers={"Content-Type": "application/json"}
    )
    status, _, _ = http_request("DELETE", f"/ns/n/k/{key}")
    assert status == 204
    status, _, _ = http_request("DELETE", f"/ns/n/k/{key}")
    assert status == 404


def test_empty_namespace_is_addressable(http_request):
    """The evaluation cache's default namespace is the empty string."""
    key = hex_key(6)
    status, _, _ = http_request(
        "PUT", f"/ns//k/{key}", body=b'{"v": 1}', headers={"Content-Type": "application/json"}
    )
    assert status == 204
    status, _, body = http_request("GET", f"/ns//k/{key}")
    assert status == 200 and json.loads(body) == {"v": 1}


# ----------------------------------------------------------------------
# Batch routes
# ----------------------------------------------------------------------
def test_mput_then_mget(http_request):
    records = {hex_key(i): {"ct": "json", "v": {"v": i}} for i in range(8)}
    status, _, body = http_request(
        "POST",
        "/ns/batch/mput",
        body=json.dumps({"records": records}).encode(),
        headers={"Content-Type": "application/json"},
    )
    assert status == 200
    assert json.loads(body)["stored"] == 8

    keys = list(records) + [hex_key(99)]
    status, _, body = http_request(
        "POST",
        "/ns/batch/mget",
        body=json.dumps({"keys": keys}).encode(),
        headers={"Content-Type": "application/json"},
    )
    assert status == 200
    envelope = json.loads(body)
    assert set(envelope["hits"]) == set(records)
    assert envelope["misses"] == [hex_key(99)]
    assert envelope["hits"][hex_key(3)] == {"ct": "json", "v": {"v": 3}}


# ----------------------------------------------------------------------
# Names that would reach files outside the served root
# ----------------------------------------------------------------------
JSON_HEADERS = {"Content-Type": "application/json"}


@pytest.fixture()
def planted(tmp_path):
    """A pickle beside the served root (``tmp_path / "store"``), where a
    ``..`` namespace or key would reach."""
    target = tmp_path / "escape" / "deadbeef.pkl"
    target.parent.mkdir()
    target.write_bytes(pickle.dumps("outside the root"))
    return target


def outside_the_root(tmp_path):
    """Every path under ``tmp_path`` but outside the root, with its bytes."""
    root = tmp_path / "store"
    return {
        path: path.read_bytes() if path.is_file() else None
        for path in tmp_path.rglob("*")
        if path != root and root not in path.parents
    }


@pytest.mark.parametrize(
    "namespace, key",
    [
        ("..%2Fescape", "deadbeef"),
        ("..", "deadbeef"),
        ("%2E%2E", "deadbeef"),
        ("n", "..%2F..%2Fescape%2Fdeadbeef"),
        ("n", ".."),
        ("a%5Cb", "deadbeef"),
        ("n", "dead%00beef"),
    ],
)
def test_item_routes_reject_names_outside_the_root(
    http_request, tmp_path, planted, namespace, key
):
    before = outside_the_root(tmp_path)
    path = f"/ns/{namespace}/k/{key}"
    for method, body in (("PUT", b'{"v": 1}'), ("GET", None), ("HEAD", None), ("DELETE", None)):
        status, _, _ = http_request(method, path, body=body, headers=JSON_HEADERS)
        assert status == 400, (method, path)
    assert outside_the_root(tmp_path) == before


@pytest.mark.parametrize("operation", ["mget", "mput"])
def test_batch_routes_reject_a_namespace_outside_the_root(
    http_request, tmp_path, planted, operation
):
    before = outside_the_root(tmp_path)
    document = (
        {"keys": ["deadbeef"]}
        if operation == "mget"
        else {"records": {"deadbeef": {"ct": "json", "v": {"v": 1}}}}
    )
    status, _, body = http_request(
        "POST",
        f"/ns/..%2Fescape/{operation}",
        body=json.dumps(document).encode(),
        headers=JSON_HEADERS,
    )
    assert status == 400 and "namespace" in json.loads(body)["error"]
    assert outside_the_root(tmp_path) == before


def test_mget_rejects_keys_outside_the_root(http_request, tmp_path, planted):
    before = outside_the_root(tmp_path)
    status, _, body = http_request(
        "POST",
        "/ns/n/mget",
        body=json.dumps({"keys": [hex_key(1), "../../escape/deadbeef"]}).encode(),
        headers=JSON_HEADERS,
    )
    assert status == 400 and "key" in json.loads(body)["error"]
    assert outside_the_root(tmp_path) == before


def test_mput_rejects_record_keys_outside_the_root(http_request, tmp_path, planted):
    before = outside_the_root(tmp_path)
    records = {
        hex_key(1): {"ct": "json", "v": {"v": 1}},
        "../../escape/written": {"ct": "json", "v": {"v": 2}},
    }
    status, _, body = http_request(
        "POST",
        "/ns/n/mput",
        body=json.dumps({"records": records}).encode(),
        headers=JSON_HEADERS,
    )
    assert status == 400 and "key" in json.loads(body)["error"]
    assert outside_the_root(tmp_path) == before
    # The batch is rejected whole: not even its valid record is stored.
    status, _, _ = http_request("GET", f"/ns/n/k/{hex_key(1)}")
    assert status == 404


# ----------------------------------------------------------------------
# Maintenance routes
# ----------------------------------------------------------------------
def test_healthz_and_stats_with_request_counters(http_request):
    status, _, body = http_request("GET", "/healthz")
    assert status == 200
    assert json.loads(body)["status"] == "ok"

    http_request("GET", f"/ns/n/k/{hex_key(1)}")  # one miss
    status, _, body = http_request("GET", "/stats")
    assert status == 200
    document = json.loads(body)
    assert document["requests"]["healthz"] == 1
    assert document["requests"]["get"] == 1
    assert document["backend"]["misses"] == 1
    assert document["uptime_seconds"] >= 0


def test_scan_lists_entries(http_request):
    for index in range(3):
        http_request(
            "PUT",
            f"/ns/a/k/{hex_key(index)}",
            body=b"{}",
            headers={"Content-Type": "application/json"},
        )
    http_request(
        "PUT", f"/ns/b/k/{hex_key(9)}", body=b"{}", headers={"Content-Type": "application/json"}
    )
    status, _, body = http_request("GET", "/scan")
    assert status == 200
    entries = json.loads(body)["entries"]
    assert len(entries) == 4
    status, _, body = http_request("GET", "/scan?ns=a")
    assert {entry["key"] for entry in json.loads(body)["entries"]} == {
        hex_key(index)[:32] for index in range(3)
    }


def test_janitor_gc_and_compaction(http_request):
    for index in range(4):
        http_request(
            "PUT",
            f"/ns/a/k/{hex_key(index)}",
            body=b"{}",
            headers={"Content-Type": "application/json"},
        )
    status, _, body = http_request(
        "POST",
        "/janitor",
        body=json.dumps({"max_age": 0, "compact": True}).encode(),
        headers={"Content-Type": "application/json"},
    )
    assert status == 200
    report = json.loads(body)
    assert report["scanned"] == 4
    assert report["evicted"] == 4
    status, _, body = http_request("GET", "/scan")
    assert json.loads(body)["entries"] == []


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
def test_unknown_route_is_404(http_request):
    status, _, body = http_request("GET", "/nope")
    assert status == 404 and "error" in json.loads(body)


def test_wrong_method_is_405(http_request):
    for method, path in (
        ("POST", f"/ns/n/k/{hex_key(1)}"),
        ("GET", "/ns/n/mget"),
        ("GET", "/janitor"),
        ("POST", "/stats"),
    ):
        status, _, body = http_request(method, path)
        assert status == 405, (method, path)
        assert "error" in json.loads(body)


def test_malformed_json_is_400(http_request):
    status, _, _ = http_request(
        "PUT",
        f"/ns/n/k/{hex_key(1)}",
        body=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    assert status == 400
    status, _, _ = http_request(
        "POST",
        "/ns/n/mget",
        body=b'{"keys": "not-a-list"}',
        headers={"Content-Type": "application/json"},
    )
    assert status == 400
    status, _, _ = http_request(
        "POST",
        "/janitor",
        body=json.dumps({"max_age": -3}).encode(),
        headers={"Content-Type": "application/json"},
    )
    assert status == 400


@pytest.mark.parametrize(
    "length, status",
    [("-1", 400), ("abc", 400), (str(MAX_BODY_BYTES + 1), 413)],
    ids=["negative", "not-a-number", "oversized"],
)
def test_bad_content_length_is_rejected_and_closes(server, length, status):
    """A Content-Length that is negative, not a number or over the cap is
    answered at once, without reading a body, and the server hangs up."""
    request = (
        f"PUT /ns/n/k/{hex_key(1)} HTTP/1.1\r\n"
        f"Host: {server.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection((server.host, server.port), timeout=3) as raw:
        raw.sendall(request)
        response = b""
        while True:  # the server closes the connection after answering
            chunk = raw.recv(65536)
            if not chunk:
                break
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    status_line, *headers = head.decode("latin-1").split("\r\n")
    assert status_line.split()[1] == str(status)
    assert "connection: close" in [header.lower() for header in headers]
    assert "error" in json.loads(body)


def test_unsupported_content_type_is_415(http_request):
    status, _, _ = http_request(
        "PUT",
        f"/ns/n/k/{hex_key(1)}",
        body=b"v=1",
        headers={"Content-Type": "text/plain"},
    )
    assert status == 415


def test_jsonl_backed_server_rejects_binary_payloads(tmp_path):
    """A records-only backend maps its domain error to 415, not 500."""
    with StoreServer(ShardedJsonlBackend(tmp_path / "records.jsonl")) as live:
        connection = http.client.HTTPConnection(live.host, live.port, timeout=10)
        try:
            connection.request(
                "PUT",
                f"/ns/n/k/{hex_key(1)}",
                body=b"\x80\x05blob",
                headers={"Content-Type": "application/octet-stream"},
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 415
            # JSON records are still welcome.
            connection.request(
                "PUT",
                f"/ns/n/k/{hex_key(1)}",
                body=b'{"v": 1}',
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 204
        finally:
            connection.close()


def test_server_over_memory_backend_and_ephemeral_port():
    with StoreServer(MemoryBackend()) as live:
        assert live.port != 0
        assert live.url.startswith("http://127.0.0.1:")
