"""Concurrency battery: many clients hammering one store service.

Several threads *and* two forked OS processes issue mixed batch writes,
batch reads and janitor passes against a single :class:`StoreServer`.
The service contract under that load mirrors the local stores':

* zero lost records — every record any client stored is readable
  afterwards, by a fresh client and by a fresh backend over the same
  directory,
* zero torn records — the JSONL lines behind a records server parse
  cleanly after arbitrary interleaving with compaction.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading

import pytest

from repro.service import StoreServer
from repro.store import RemoteBackend, ShardedJsonlBackend

WRITERS = 6
PROCESS_WRITERS = 2
RECORDS_PER_WRITER = 40

mp = multiprocessing.get_context("fork")

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def writer_key(writer: int, index: int) -> str:
    return hashlib.sha256(f"client-{writer}-record-{index}".encode()).hexdigest()


def hammer(url: str, writer: int, batch: int = 8) -> None:
    """One client's mixed workload: mput waves, mget reads, janitor passes."""
    client = RemoteBackend(url, strict=True)
    try:
        keys = [writer_key(writer, index) for index in range(RECORDS_PER_WRITER)]
        for start in range(0, RECORDS_PER_WRITER, batch):
            wave = keys[start : start + batch]
            client.put_many(
                "", {key: {"writer": writer, "index": keys.index(key)} for key in wave}
            )
            found = client.get_many("", wave)
            assert set(found) == set(wave), f"writer {writer} lost records mid-run"
            if start % (batch * 2) == 0:
                # Compaction-only janitor passes race the other writers.
                client.sweep_remote(None, compact=True)
        assert set(client.get_many("", keys)) == set(keys)
    finally:
        client.close()


def test_threads_and_processes_hammering_one_server(tmp_path):
    path = tmp_path / "records.jsonl"
    with StoreServer(ShardedJsonlBackend(path)) as server:
        threads = [
            threading.Thread(target=hammer, args=(server.url, writer))
            for writer in range(WRITERS)
        ]
        processes = [
            mp.Process(target=hammer, args=(server.url, WRITERS + writer))
            for writer in range(PROCESS_WRITERS)
        ]
        for worker in threads + processes:
            worker.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        # Every record every client wrote is readable by a fresh client.
        checker = RemoteBackend(server.url, strict=True)
        all_keys = [
            writer_key(writer, index)
            for writer in range(WRITERS + PROCESS_WRITERS)
            for index in range(RECORDS_PER_WRITER)
        ]
        found = checker.get_many("", all_keys)
        assert len(found) == len(all_keys), "the service lost records under load"
        for key in all_keys:
            assert writer_key(found[key]["writer"], found[key]["index"]) == key
        checker.close()
        assert server.service.backend.corrupt_lines == 0

    # And by a fresh backend straight off the directory: nothing torn.
    reopened = ShardedJsonlBackend(path)
    assert reopened.corrupt_lines == 0, "a torn line reached the store file"
    assert len(reopened) == len(all_keys)
