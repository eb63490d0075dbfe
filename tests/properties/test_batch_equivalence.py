"""Property tests: wave evaluation ≡ scalar models, bulk ≡ sequential frontier.

The scalar explorer is the oracle.  Over random schedule profiles and
random (valid) RSP parameter grids, the :class:`BatchEvaluator` must
produce *equal* ``DesignPointEvaluation`` objects — same architecture
specs, bitwise-identical floats, same stall dictionaries — because it
calls the same cost and timing models and its memoised stall tables must
count what the stall estimator's walk counts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchEvaluator
from repro.core.exploration import RSPDesignSpaceExplorer
from repro.core.rsp_params import RSPParameters
from repro.core.stalls import CriticalOpIssue, ScheduleProfile
from repro.engine.frontier import ParetoFrontier


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def schedule_profile(draw, kernel: str):
    issues = draw(
        st.lists(
            st.builds(
                CriticalOpIssue,
                cycle=st.integers(min_value=0, max_value=6),
                row=st.integers(min_value=0, max_value=3),
                col=st.integers(min_value=0, max_value=3),
                iteration=st.integers(min_value=0, max_value=9),
                has_immediate_dependent=st.booleans(),
            ),
            max_size=24,
        )
    )
    max_cycle = max((issue.cycle for issue in issues), default=0)
    length = draw(st.integers(min_value=max_cycle + 1, max_value=max_cycle + 8))
    return ScheduleProfile(
        kernel=kernel, length=length, critical_issues=tuple(issues), rows=4, cols=4
    )


@st.composite
def profile_set(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    return {
        f"k{index}": draw(schedule_profile(f"k{index}")) for index in range(count)
    }


@st.composite
def rsp_candidate(draw):
    kind = draw(st.sampled_from(["base", "rs", "rp", "rsp"]))
    if kind == "base":
        return RSPParameters()
    if kind == "rp":
        return RSPParameters(
            pipelined_resources=("array_multiplier",),
            pipeline_stages=draw(st.integers(min_value=2, max_value=4)),
        )
    shr = draw(st.integers(min_value=0, max_value=4))
    shc = draw(st.integers(min_value=0 if shr else 1, max_value=4))
    if kind == "rs":
        return RSPParameters(
            shared_resources=("array_multiplier",), rows_shared=shr, cols_shared=shc
        )
    return RSPParameters(
        shared_resources=("array_multiplier",),
        pipelined_resources=("array_multiplier",),
        pipeline_stages=draw(st.integers(min_value=2, max_value=4)),
        rows_shared=shr,
        cols_shared=shc,
    )


candidate_grid = st.lists(rsp_candidate(), min_size=1, max_size=12)


# ----------------------------------------------------------------------
# Batch evaluation ≡ scalar
# ----------------------------------------------------------------------
@given(profiles=profile_set(), grid=candidate_grid)
@settings(max_examples=40, deadline=None)
def test_vectorized_equals_scalar(profiles, grid):
    explorer = RSPDesignSpaceExplorer(profiles)
    evaluator = BatchEvaluator(
        explorer.profiles,
        array=explorer.array,
        cost_model=explorer.cost_model,
        timing_model=explorer.timing_model,
    )
    vectorized = evaluator.evaluate(grid)
    scalar = [explorer.evaluate(candidate) for candidate in grid]
    assert vectorized == scalar
    for expected, actual in zip(scalar, vectorized):
        assert actual.area_slices == expected.area_slices
        assert actual.critical_path_ns == expected.critical_path_ns
        assert actual.total_stall_cycles == expected.total_stall_cycles
        assert actual.total_execution_time_ns == expected.total_execution_time_ns


# ----------------------------------------------------------------------
# Bulk frontier insertion ≡ sequential insertion
# ----------------------------------------------------------------------
vector2 = st.tuples(
    st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12)
)
vector3 = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)


@given(existing=st.lists(vector2, max_size=12), incoming=st.lists(vector2, max_size=12))
@settings(max_examples=80, deadline=None)
def test_add_many_matches_sequential_adds_2d(existing, incoming):
    sequential = ParetoFrontier(num_objectives=2)
    bulk = ParetoFrontier(num_objectives=2)
    for vector in existing:
        sequential.add(vector)
        bulk.add(vector)
    for vector in incoming:
        sequential.add(vector)
    bulk.add_many(incoming)
    assert bulk.vectors() == sequential.vectors()


@given(existing=st.lists(vector3, max_size=10), incoming=st.lists(vector3, max_size=10))
@settings(max_examples=60, deadline=None)
def test_add_many_matches_sequential_adds_3d(existing, incoming):
    sequential = ParetoFrontier(num_objectives=3)
    bulk = ParetoFrontier(num_objectives=3)
    for vector in existing:
        sequential.add(vector)
        bulk.add(vector)
    for vector in incoming:
        sequential.add(vector)
    bulk.add_many(incoming)
    assert sorted(bulk.vectors()) == sorted(sequential.vectors())


@given(incoming=st.lists(vector2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_add_many_count_equals_surviving_new_entries(incoming):
    frontier = ParetoFrontier(num_objectives=2)
    frontier.add((6, 6))
    before = frontier.vectors()
    added = frontier.add_many(incoming)
    after = frontier.vectors()
    # Every reported addition is present, and the survivors of the old
    # front account for the rest.
    kept_old = sum(1 for vector in before if vector in after)
    assert added == len(after) - kept_old
