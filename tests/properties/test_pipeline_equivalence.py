"""Pipeline ↔ seed-mapper equivalence across all four kernel suites.

The staged pipeline (and therefore the :class:`RSPMapper` facade over it)
must be a pure refactor: for every kernel and design point it has to
produce a :class:`MappingResult` bit-identical to the seed's monolithic
``RSPMapper.map_kernel`` — same cycle counts, same stalls, same schedule
entries, same configuration context — both with a cold artifact store and
with a warm one (where every stage is fetched instead of computed).

``SeedRSPMapper`` below ports the seed's monolithic *composition* of the
mapping steps (DFG and base-schedule memos, rearrangement, stall summary,
context generation).  It calls the production ``LoopPipeliningScheduler``
and ``rearrange_schedule``, so this file pins the pipeline's plumbing, not
the scheduler: ``tests/mapping/test_reference_mapper.py`` pins those two
against a frozen copy in ``tests/mapping/reference_mapper.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import base_architecture, rs_architecture, rsp_architecture
from repro.arch.template import ArchitectureSpec, PipeliningSpec, SharingTopology
from repro.engine.artifacts import ArtifactStore
from repro.engine.jobs import SUITE_NAMES, suite_kernels
from repro.kernels import get_kernel
from repro.mapping import MappingPipeline, MappingResult
from repro.mapping.context_gen import generate_context
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.rearrange import (
    RearrangementResult,
    evaluate_rearrangement,
    rearrange_schedule,
)


class SeedRSPMapper:
    """The seed's monolithic mapper over the production scheduler and rearranger."""

    def __init__(self, base=None, generate_contexts=False):
        self.base = base or base_architecture()
        self.generate_contexts = generate_contexts
        self._dfg_cache = {}
        self._base_schedule_cache = {}

    def build_dfg(self, kernel, iterations=None):
        key = f"{kernel.name}@{iterations or kernel.iterations}"
        if key not in self._dfg_cache:
            self._dfg_cache[key] = kernel.build(iterations)
        return self._dfg_cache[key]

    def base_schedule(self, kernel, iterations=None):
        key = f"{kernel.name}@{iterations or kernel.iterations}"
        if key not in self._base_schedule_cache:
            dfg = self.build_dfg(kernel, iterations)
            scheduler = LoopPipeliningScheduler(self.base)
            self._base_schedule_cache[key] = scheduler.schedule(dfg, kernel_name=kernel.name)
        return self._base_schedule_cache[key]

    def map_kernel(self, kernel, architecture=None, iterations=None):
        target = architecture or self.base
        dfg = self.build_dfg(kernel, iterations)
        base_schedule = self.base_schedule(kernel, iterations)
        if target.is_base:
            schedule = base_schedule
            summary = RearrangementResult(
                kernel=kernel.name,
                architecture=target.name,
                base_cycles=base_schedule.length,
                stall_free_cycles=base_schedule.length,
                cycles=base_schedule.length,
            )
        else:
            schedule = rearrange_schedule(base_schedule, dfg, target)
            summary = evaluate_rearrangement(base_schedule, dfg, target)
        context = generate_context(schedule, dfg) if self.generate_contexts else None
        return MappingResult(
            kernel=kernel.name,
            architecture=target,
            dfg=dfg,
            base_schedule=base_schedule,
            schedule=schedule,
            cycles=summary.cycles,
            stall_cycles=summary.stall_cycles,
            base_cycles=summary.base_cycles,
            context=context,
        )


def schedule_signature(schedule):
    return [
        (
            entry.name,
            entry.cycle,
            entry.row,
            entry.col,
            entry.latency,
            entry.pe_occupancy,
            entry.shared_unit,
        )
        for entry in schedule.operations()
    ]


def assert_results_identical(expected: MappingResult, actual: MappingResult) -> None:
    assert actual.kernel == expected.kernel
    assert actual.cycles == expected.cycles
    assert actual.stall_cycles == expected.stall_cycles
    assert actual.base_cycles == expected.base_cycles
    assert schedule_signature(actual.base_schedule) == schedule_signature(expected.base_schedule)
    assert schedule_signature(actual.schedule) == schedule_signature(expected.schedule)
    if expected.context is None:
        assert actual.context is None
    else:
        assert list(actual.context.active_words()) == list(expected.context.active_words())
        assert actual.context.num_cycles == expected.context.num_cycles


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_pipeline_matches_seed_mapper_cold_and_warm(suite, tmp_path_factory):
    """Every suite kernel, on base and RSP#2, cold store then warm store."""
    store_dir = tmp_path_factory.mktemp(f"artifacts_{suite}")
    seed = SeedRSPMapper(generate_contexts=True)
    cold = MappingPipeline(store=ArtifactStore(store_dir), generate_contexts=True)
    warm = MappingPipeline(store=ArtifactStore(store_dir), generate_contexts=True)

    architectures = (base_architecture(), rsp_architecture(2))
    for kernel in suite_kernels(suite):
        for architecture in architectures:
            expected = seed.map_kernel(kernel, architecture)
            assert_results_identical(expected, cold.run(kernel, architecture))
            assert_results_identical(expected, warm.run(kernel, architecture))

    # The warm pipeline was served entirely from the cold run's artifacts.
    for stage in ("base_schedule", "rearrange", "generate_context"):
        assert warm.stats.timing(stage).misses == 0
        assert warm.stats.timing(stage).hits > 0
    assert warm.store.stats.misses == 0


@st.composite
def design_points(draw):
    rows_shared = draw(st.integers(min_value=0, max_value=3))
    cols_shared = draw(st.integers(min_value=0, max_value=2))
    stages = draw(st.integers(min_value=1, max_value=3))
    if rows_shared == 0 and cols_shared == 0:
        # No sharing: either the base point or a pipelined-only (RP) design.
        return ArchitectureSpec(
            name="candidate",
            array=base_architecture().array,
            pipelining=PipeliningSpec(stages=stages),
        )
    return ArchitectureSpec(
        name="candidate",
        array=base_architecture().array,
        sharing=SharingTopology(rows_shared=rows_shared, cols_shared=cols_shared),
        pipelining=PipeliningSpec(stages=stages),
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kernel_name=st.sampled_from(["MVM", "Hydro", "SAD", "Inner product"]),
    architecture=design_points(),
    iterations=st.integers(min_value=2, max_value=8),
)
def test_pipeline_matches_seed_mapper_on_random_points(kernel_name, architecture, iterations):
    kernel = get_kernel(kernel_name)
    expected = SeedRSPMapper(generate_contexts=True).map_kernel(
        kernel, architecture, iterations=iterations
    )
    pipeline = MappingPipeline(generate_contexts=True)
    assert_results_identical(expected, pipeline.run(kernel, architecture, iterations=iterations))
    # A second run of the same pipeline is memoised and still identical.
    assert_results_identical(expected, pipeline.run(kernel, architecture, iterations=iterations))
