"""Benchmark: the store service over the wire, batched vs per-key.

Runs the PR 3 storage workload (small flat JSON records under
content-hash keys) against three backends sharing one live
:class:`~repro.service.StoreServer`:

* ``local`` — a :class:`ShardedJsonlBackend` on disk (the baseline),
* ``remote`` — a :class:`RemoteBackend` over HTTP,
* ``tiered`` — a :class:`TieredBackend` front over that remote.

and asserts the structural claims the service layer makes:

* batched ``put_many`` (one ``mput`` round trip) beats per-key ``put``
  (one HTTP request per record) by at least 3x over the same socket,
* batched ``get_many`` beats per-key ``get`` over the wire,
* warm tiered reads (served from the memory front) beat remote reads,
  because they never touch the socket at all.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.service import StoreServer
from repro.store import RemoteBackend, ShardedJsonlBackend, TieredBackend
from repro.utils.tabulate import format_table

RECORDS = 300
#: Batched mput must beat per-key puts by at least this factor.
MPUT_SPEEDUP_FLOOR = 3.0


def record_key(tag: str, index: int) -> str:
    return hashlib.sha256(f"{tag}-record-{index}".encode()).hexdigest()


def payload(index: int) -> dict:
    return {"label": f"rsp(shr={index % 3})", "area_slices": float(index), "stalls": index % 7}


def timed(function) -> float:
    started = time.perf_counter()
    function()
    return time.perf_counter() - started


@pytest.fixture()
def server(tmp_path):
    with StoreServer(ShardedJsonlBackend(tmp_path / "service.jsonl")) as live:
        yield live


def test_remote_backend_throughput_table(server, tmp_path, bench_metrics):
    rows = []
    clients = {}
    for label, backend in (
        ("local", ShardedJsonlBackend(tmp_path / "local.jsonl")),
        ("remote", RemoteBackend(server.url, strict=True)),
        ("tiered", TieredBackend(RemoteBackend(server.url, strict=True), auto_flush=False)),
    ):
        keys = [record_key(label, index) for index in range(RECORDS)]
        put_seconds = timed(
            lambda: backend.put_many(label, {key: payload(i) for i, key in enumerate(keys)})
        )
        if label == "tiered":
            backend.flush()
        cold_get = timed(lambda: backend.get_many(label, keys))
        warm_get = timed(lambda: backend.get_many(label, keys))
        clients[label] = backend
        bench_metrics[f"{label}_mput_per_s"] = round(RECORDS / put_seconds, 1)
        bench_metrics[f"{label}_cold_mget_per_s"] = round(RECORDS / cold_get, 1)
        bench_metrics[f"{label}_warm_mget_per_s"] = round(RECORDS / warm_get, 1)
        rows.append(
            [
                label,
                RECORDS,
                round(RECORDS / put_seconds),
                round(RECORDS / cold_get),
                round(RECORDS / warm_get),
            ]
        )
    print()
    print(
        format_table(
            rows,
            headers=["backend", "records", "mputs/s", "cold mgets/s", "warm mgets/s"],
            title="store service throughput (one live server)",
        )
    )
    # Warm tiered reads never touch the socket; remote ones always do.
    remote_warm = timed(lambda: clients["remote"].get_many("remote", [record_key("remote", i) for i in range(RECORDS)]))
    tiered_warm = timed(lambda: clients["tiered"].get_many("tiered", [record_key("tiered", i) for i in range(RECORDS)]))
    assert tiered_warm < remote_warm
    clients["remote"].close()
    clients["tiered"].close()


def test_batched_mput_beats_per_key_puts_over_the_same_socket(server, bench_metrics):
    client = RemoteBackend(server.url, strict=True)
    try:
        single_keys = [record_key("single", index) for index in range(RECORDS)]
        per_key_seconds = timed(
            lambda: [
                client.put("single", key, payload(index))
                for index, key in enumerate(single_keys)
            ]
        )
        batch_records = {
            record_key("batch", index): payload(index) for index in range(RECORDS)
        }
        batch_seconds = timed(lambda: client.put_many("batch", batch_records))

        speedup = per_key_seconds / batch_seconds
        bench_metrics.update(
            {
                "records": RECORDS,
                "per_key_put_seconds": round(per_key_seconds, 6),
                "batched_mput_seconds": round(batch_seconds, 6),
                "mput_speedup": round(speedup, 2),
            }
        )
        print(
            f"\nmput: {RECORDS} records per-key {per_key_seconds * 1000:.1f} ms, "
            f"batched {batch_seconds * 1000:.1f} ms -> {speedup:.1f}x"
        )
        assert speedup >= MPUT_SPEEDUP_FLOOR, (
            f"batched mput only {speedup:.1f}x faster than per-key puts "
            f"(floor {MPUT_SPEEDUP_FLOOR}x)"
        )

        # The read side: one mget round trip vs one GET per key.
        per_key_get = timed(lambda: [client.get("single", key) for key in single_keys])
        batch_get = timed(lambda: client.get_many("single", single_keys))
        bench_metrics["mget_speedup"] = round(per_key_get / batch_get, 2)
        print(
            f"mget: per-key {per_key_get * 1000:.1f} ms, "
            f"batched {batch_get * 1000:.1f} ms -> {per_key_get / batch_get:.1f}x"
        )
        assert batch_get < per_key_get
    finally:
        client.close()
