"""The DFG's canonical JSON writer against its oracle.

:meth:`DFG.canonical_json` writes the text that
:func:`~repro.mapping.fingerprints.dfg_fingerprint` hashes without building
:meth:`DFG.to_dict`.  Its oracle is ``json.dumps(dfg.to_dict(),
sort_keys=True, separators=(",", ":"))``: any difference changes every
artifact key, so a store filled by one version would miss on the other.
"""

from __future__ import annotations

import enum
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import DFG, Operation, OpType
from repro.kernels import example_kernels, paper_suite
from repro.kernels.h264 import h264_kernels
from repro.mapping.fingerprints import dfg_fingerprint
from repro.utils.serialization import json_hash

from dfg_strategies import random_kernel_dfg


def assert_matches_oracle(dfg: DFG) -> None:
    oracle = json.dumps(dfg.to_dict(), sort_keys=True, separators=(",", ":"))
    assert dfg.canonical_json() == oracle
    assert dfg_fingerprint(dfg) == json_hash(dfg.to_dict())


#: Quotes, backslashes, control characters, non-ASCII and a lone
#: surrogate each take one of ``json.dumps``'s escapes.
TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é \U0001f600", "\ud800"])
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])


@st.composite
def hostile_dfg(draw):
    """A DFG of drawn operations and random edges (cycles allowed)."""
    dfg = DFG(draw(TEXT))
    names = draw(st.lists(TEXT.filter(bool), unique=True, max_size=8))
    for name in names:
        dfg.add_operation(
            Operation(
                name,
                draw(st.sampled_from(OpType)),
                draw(st.integers(min_value=0, max_value=2**70)),
                draw(st.none() | TEXT),
                draw(st.none() | st.integers() | TEXT),
                draw(st.none() | st.integers() | FLOATS | st.booleans()),
                draw(TEXT),
            )
        )
    if len(names) >= 2:
        pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
        for producer, consumer in draw(
            st.lists(pairs.filter(lambda pair: pair[0] != pair[1]), unique=True, max_size=20)
        ):
            dfg.add_dependence(producer, consumer, draw(st.sampled_from([None, 0, 1])))
    return dfg


@given(hostile_dfg())
@settings(max_examples=300, deadline=None)
def test_writer_equals_oracle_on_hostile_graphs(dfg: DFG):
    assert_matches_oracle(dfg)


@given(random_kernel_dfg())
@settings(max_examples=60, deadline=None)
def test_writer_equals_oracle_on_random_kernels(dfg: DFG):
    assert_matches_oracle(dfg)


@given(random_kernel_dfg(), TEXT)
@settings(max_examples=30, deadline=None)
def test_writer_equals_oracle_on_copied_and_merged_graphs(dfg: DFG, prefix: str):
    copied = dfg.copy(name="copied")
    merged = dfg.copy()
    merged.merge(dfg, prefix=prefix)
    for graph in (copied, merged):
        assert_matches_oracle(graph)
    assert dfg_fingerprint(copied) != dfg_fingerprint(dfg)  # the name is hashed
    assert dfg_fingerprint(dfg.copy()) == dfg_fingerprint(dfg)


class _Level(enum.IntEnum):
    HIGH = 7


class _Label(str):
    pass


def test_writer_hands_other_values_to_json_dumps():
    """Bools, int and str subclasses, floats and containers: each as json.dumps writes it."""
    dfg = DFG(_Label("subé"))
    values = [True, False, _Level.HIGH, 2**80, -0.0, math.nan, (1, "a"), {"k": [None]}]
    for position, value in enumerate(values):
        dfg.add_operation(
            Operation(
                _Label(f"op{position}"),
                OpType.ADD,
                position,
                _Label("arr"),
                value,
                value,
                _Label("\\note"),
            )
        )
    dfg.add_dependence("op0", "op1", True)
    dfg.add_dependence("op1", "op2", 1.0)
    dfg.add_dependence("op2", "op3", _Level.HIGH)
    assert_matches_oracle(dfg)


def test_writer_equals_oracle_on_every_registered_kernel():
    for kernel in paper_suite() + h264_kernels() + example_kernels():
        assert_matches_oracle(kernel.build())
        assert_matches_oracle(kernel.build_body())
