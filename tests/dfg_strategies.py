"""Hypothesis strategies for random kernel DFGs, shared by the mapping tests.

``tests/`` holds the suite's root ``conftest.py``, so pytest puts this
directory on ``sys.path`` and any test module can import this one by name.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ir import DFGBuilder, OpType


@st.composite
def random_kernel_dfg(draw):
    """A random multi-iteration kernel: loads feed a random expression tree."""
    builder = DFGBuilder("random_kernel")
    iterations = draw(st.integers(min_value=1, max_value=6))
    optypes = [OpType.ADD, OpType.SUB, OpType.MUL, OpType.MUL]  # bias towards mults
    for iteration in range(iterations):
        builder.set_iteration(iteration)
        values = [
            builder.load("x", iteration * 8 + index)
            for index in range(draw(st.integers(min_value=2, max_value=5)))
        ]
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            left = draw(st.sampled_from(values))
            right = draw(st.sampled_from(values))
            values.append(builder.binary(draw(st.sampled_from(optypes)), left, right))
        builder.store("out", iteration, values[-1])
    return builder.build()
