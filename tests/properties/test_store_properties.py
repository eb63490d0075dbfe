"""Property tests for the unified storage layer.

Three store invariants, each checked for every backend:

* round trip — a stored payload is returned intact by ``get``,
* reopen stability — a persisted key is found again by a fresh backend
  after an interpreter restart,
* GC safety — a key that was just read is never evicted by an age sweep,
  no matter how old its original write is.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.store import MemoryBackend, PickleDirBackend, ShardedJsonlBackend, StoreJanitor

BACKEND_KINDS = ("memory", "jsonl", "pickle")
PERSISTENT_KINDS = ("jsonl", "pickle")


class FakeClock:
    def __init__(self) -> None:
        self.now = time.time()

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def hex_key(index: int) -> str:
    return hashlib.sha256(str(index).encode()).hexdigest()


def make_backend(kind: str, root: Path, clock=None):
    clock = clock or time.time
    if kind == "memory":
        return MemoryBackend(clock=clock)
    if kind == "jsonl":
        return ShardedJsonlBackend(root / "records.jsonl", clock=clock)
    return PickleDirBackend(root / "pickles", clock=clock)


# Field names avoid the backend-reserved "key"/"ns"/"ts" by alphabet.
scalars = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.booleans(),
    st.text(max_size=16),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
payloads = st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=8), scalars, max_size=5
)
key_ids = st.sets(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", BACKEND_KINDS)
@given(ids=key_ids, payload=payloads)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_round_trip(kind, ids, payload):
    with tempfile.TemporaryDirectory() as root:
        backend = make_backend(kind, Path(root))
        for index in ids:
            backend.put("ns", hex_key(index), dict(payload))
        for index in ids:
            hit, value = backend.get("ns", hex_key(index))
            assert hit
            # JSONL returns the record with its reserved bookkeeping
            # fields added; the payload itself must be intact.
            assert {name: value[name] for name in payload} == payload


@pytest.mark.parametrize("kind", BACKEND_KINDS)
@given(ids=key_ids, payload=payloads)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_round_trip_survives_compaction(kind, ids, payload):
    with tempfile.TemporaryDirectory() as root:
        backend = make_backend(kind, Path(root))
        for index in ids:
            backend.put("ns", hex_key(index), dict(payload))
        report = backend.compact()
        assert report.entries_kept == len(ids)
        for index in ids:
            hit, value = backend.get("ns", hex_key(index))
            assert hit
            assert {name: value[name] for name in payload} == payload


# ----------------------------------------------------------------------
# Reopen stability
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", PERSISTENT_KINDS)
@given(ids=key_ids)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reopen_with_same_shards_finds_every_key(kind, ids):
    with tempfile.TemporaryDirectory() as root:
        writer = make_backend(kind, Path(root))
        for index in ids:
            writer.put("ns", hex_key(index), {"v": index})
        reader = make_backend(kind, Path(root))
        for index in ids:
            assert reader.contains("ns", hex_key(index))
        assert getattr(reader, "corrupt_lines", 0) == 0


# ----------------------------------------------------------------------
# GC safety
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", BACKEND_KINDS)
@given(
    ids=st.sets(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=12),
    read_mask=st.integers(min_value=1),
    age=st.floats(min_value=10.0, max_value=10**6),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gc_never_evicts_a_key_that_was_just_read(kind, ids, read_mask, age):
    ordered = sorted(ids)
    read = {index for position, index in enumerate(ordered) if read_mask >> position & 1}
    with tempfile.TemporaryDirectory() as root:
        clock = FakeClock()
        backend = make_backend(kind, Path(root), clock=clock)
        for index in ordered:
            backend.put("ns", hex_key(index), {"v": index})
        clock.advance(age)
        for index in read:
            assert backend.get("ns", hex_key(index))[0]

        StoreJanitor(backend, max_age_seconds=age / 2).sweep()
        for index in ordered:
            if index in read:
                assert backend.contains("ns", hex_key(index)), (
                    "GC evicted a key that was read after the age cutoff"
                )
            else:
                assert not backend.contains("ns", hex_key(index))
