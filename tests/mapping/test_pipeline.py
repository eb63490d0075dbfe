"""Tests for the staged mapping pipeline and its artifact integration."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro.flowgraph.core as flow_core
import repro.flowgraph.mapping as mapping_nodes
import repro.mapping.pipeline as pipeline_module
from repro.arch import (
    ArchitectureSpec,
    ArraySpec,
    PipeliningSpec,
    RowBusSpec,
    base_architecture,
    rs_architecture,
    rsp_architecture,
)
from repro.core.rsp_params import enumerate_design_space
from repro.engine.artifacts import ArtifactStore
from repro.engine.jobs import SUITE_NAMES, suite_kernels
from repro.errors import MappingError
from repro.flowgraph.stats import DEFAULT_STAGE_ORDER
from repro.ir.loops import Kernel
from repro.kernels import get_kernel, matrix_multiplication
from repro.mapping import (
    LoopPipeliningScheduler,
    MappingPipeline,
    RSPMapper,
    RearrangedSchedule,
    architecture_fingerprint,
    dfg_fingerprint,
    stage_key,
)
from repro.mapping.fingerprints import kernel_definition
from repro.mapping.rearrange import evaluate_rearrangement
from repro.utils.serialization import content_hash

#: ``dfg_fingerprint`` of every suite kernel's default DFG, by kernel name.
#: Each seeds every artifact key of its kernel, so a change here orphans
#: persisted stores.
SUITE_FINGERPRINTS = {
    "Hydro": "4086ac716e60bd35a93049cf821ca22984a0eb1038a8f6971e115e5938acfc42",
    "ICCG": "9b9b65f75720c102ea4097505a18c9616ac3d4571fa462fa4e21833f1f45f2e9",
    "Tri-diagonal": "a6dca022f5e538e32daaa56353fa50ed8ef8adae2ec4dd1135e651842a07db7f",
    "Inner product": "5366035a0a8ffaab64484279e856ad8d6188543beabd62d4b8307d054ad75531",
    "State": "cb649abe2dd3814d3fbba9fb0ebc6f590733007b97d9b2186febe99857d973f8",
    "2D-FDCT": "447b85f6c4373612bffdde49fc0f88041f9d503ca74c02c4534d04b538aa88e0",
    "SAD": "79685c784ffad9bd37a6da647f4bdb20ce7cfa08643462c7a9e90487c9448c04",
    "MVM": "9e5512b3f630e2564dcb15c133e1d7eb4dd7f9d66aeb0c5400542218ddcfb390",
    "FFT": "b94809aaa8133b280af58bcc9051d211fa07baf5dc1e06d65329916304f0be8c",
    "H264-IT4x4": "145969a1d0fee9fc587fba6df6aa6d6acb164afdb4ef2db33da2f83e3f07a70a",
    "H264-QPEL": "766917688c138c3b03c199f09a41305a56fa197b30506db054b3de9bc2649342",
}


@pytest.fixture(scope="module")
def mvm():
    return get_kernel("MVM")


#: Clock seconds each stage body (or DFG build) spends per call under
#: the fake clock of :class:`TestStageExecutor`.
FAKE_STAGE_SECONDS = {
    "build_dfg": 1.0,
    "base_schedule": 2.0,
    "extract_profile": 4.0,
    "rearrange": 8.0,
    "generate_context": 16.0,
}


#: Self-times of a cold non-base mapping with contexts under that clock:
#: rearrangement makes two passes, the actual and the stall-free one.
NON_BASE_SECONDS = {
    "build_dfg": 1.0,
    "base_schedule": 2.0,
    "rearrange": 16.0,
    "generate_context": 16.0,
}


class TestStageExecutor:
    """What the executor guarantees every call of the five real stages."""

    @pytest.fixture
    def clock(self, monkeypatch):
        """A fake clock in the executor and the pipeline, advanced only
        by the stage functions it wraps."""
        clock = SimpleNamespace(now=0.0)
        fake_time = SimpleNamespace(perf_counter=lambda: clock.now)
        monkeypatch.setattr(flow_core, "time", fake_time)
        monkeypatch.setattr(pipeline_module, "time", fake_time)

        def advancing(owner, name, stage):
            original = getattr(owner, name)

            def timed(*args, **kwargs):
                result = original(*args, **kwargs)
                clock.now += FAKE_STAGE_SECONDS[stage]
                return result

            monkeypatch.setattr(owner, name, timed)

        advancing(Kernel, "build", "build_dfg")
        advancing(LoopPipeliningScheduler, "schedule", "base_schedule")
        advancing(mapping_nodes, "extract_profile", "extract_profile")
        advancing(mapping_nodes, "rearrange_schedule", "rearrange")
        advancing(mapping_nodes, "generate_context", "generate_context")
        return clock

    @pytest.mark.parametrize(
        "call, expected",
        [
            (
                lambda pipeline, kernel: pipeline.profile_artifact(kernel),
                {"build_dfg": 1.0, "base_schedule": 2.0, "extract_profile": 4.0},
            ),
            (
                lambda pipeline, kernel: pipeline.run(kernel, rsp_architecture(2)),
                NON_BASE_SECONDS,
            ),
            (
                # The context resolves the rearranged schedule, which
                # resolves the base schedule, each inside the other's call.
                lambda pipeline, kernel: pipeline.context_artifact(kernel, rsp_architecture(2)),
                NON_BASE_SECONDS,
            ),
        ],
        ids=["profile", "run", "context"],
    )
    def test_stage_seconds_are_self_times(self, clock, mvm, call, expected):
        pipeline = MappingPipeline(generate_contexts=True)
        call(pipeline, mvm)
        seconds = {name: timing.seconds for name, timing in pipeline.stats.stages.items()}
        assert seconds == expected
        assert sum(seconds.values()) == clock.now

    def test_stages_record_in_dataflow_order(self, tmp_path, mvm):
        """A cold non-base run with contexts runs every stage but
        ``extract_profile``; a profile first adds it in its place.  Every
        stage but ``build_dfg`` lands on disk."""
        pipeline = MappingPipeline(generate_contexts=True)
        pipeline.run(mvm, rsp_architecture(2))
        assert tuple(pipeline.stats.stages) == tuple(
            stage for stage in DEFAULT_STAGE_ORDER if stage != "extract_profile"
        )
        pipeline = MappingPipeline(store=ArtifactStore(tmp_path), generate_contexts=True)
        pipeline.profile_artifact(mvm)
        pipeline.run(mvm, rsp_architecture(2))
        assert tuple(pipeline.stats.stages) == DEFAULT_STAGE_ORDER
        stages_on_disk = {path.name for path in (tmp_path / "artifacts").iterdir()}
        assert stages_on_disk == set(DEFAULT_STAGE_ORDER) - {"build_dfg"}

    def test_a_served_value_of_another_type_names_its_stage(self, tmp_path, mvm):
        pipeline = MappingPipeline(store=ArtifactStore(tmp_path))
        profile_key = pipeline.profile_artifact(mvm).key
        ArtifactStore(tmp_path).put("extract_profile", profile_key, "not a profile")
        served = "stage 'extract_profile' was served a value of type str"
        with pytest.raises(MappingError, match=served):
            MappingPipeline(store=ArtifactStore(tmp_path)).profile_artifact(mvm)


#: The paper's base array with one read and one write bus per row.
NARROW_BASE = ArchitectureSpec(
    name="Base-1bus", array=ArraySpec(row_buses=RowBusSpec(read_buses=1, write_buses=1))
)


class TestBaseDesigns:
    """Only the pipeline's own base design keeps the base schedule."""

    def test_another_base_design_is_refused(self, mvm):
        pipeline = MappingPipeline()
        for map_it in (
            lambda: pipeline.run(mvm, NARROW_BASE),
            lambda: RSPMapper().map_kernel(mvm, NARROW_BASE),
            lambda: pipeline.context_artifact(mvm, NARROW_BASE),
        ):
            with pytest.raises(MappingError, match="'Base-1bus' is not the pipeline's base 'Base'"):
                map_it()

    def test_a_design_on_another_array_is_refused_by_every_entry(self, mvm):
        pipeline = MappingPipeline()
        small = rsp_architecture(2, rows=4, cols=4)
        for map_it in (
            lambda: pipeline.run(mvm, small),
            lambda: pipeline.rearrange_artifact(mvm, small),
            lambda: pipeline.context_artifact(mvm, small),
            lambda: pipeline.context_artifact(mvm, base_architecture(rows=4, cols=4)),
            lambda: RSPMapper().map_kernel(mvm, small),
        ):
            with pytest.raises(MappingError, match="the same array dimensions as the base"):
                map_it()
        assert pipeline.store.stats.hits + pipeline.store.stats.misses == 0

    def test_a_pipeline_built_on_it_maps_it(self, mvm):
        result = RSPMapper(base=NARROW_BASE).map_kernel(mvm, NARROW_BASE)
        assert result.cycles == 24
        assert result.schedule.architecture.array.row_buses.read_buses == 1

    def test_a_renamed_base_keeps_the_base_schedule(self, mvm):
        pipeline = MappingPipeline()
        result = pipeline.run(mvm, base_architecture().with_name("Base-alias"))
        assert result.schedule is result.base_schedule
        assert result.cycles == 17


class TestFingerprints:
    def test_dfg_fingerprint_is_content_based(self, mvm):
        assert dfg_fingerprint(mvm.build()) == dfg_fingerprint(mvm.build())
        assert dfg_fingerprint(mvm.build(4)) != dfg_fingerprint(mvm.build(8))

    def test_dfg_fingerprint_is_the_content_hash_of_to_dict(self):
        checked = 0
        for suite in SUITE_NAMES:
            for kernel in suite_kernels(suite):
                dfg = kernel.build()
                assert dfg_fingerprint(dfg) == content_hash(dfg.to_dict()), kernel.name
                assert dfg_fingerprint(dfg) == SUITE_FINGERPRINTS[kernel.name], kernel.name
                checked += 1
        assert checked == 20

    def test_architecture_fingerprint_ignores_the_name(self):
        named = rsp_architecture(2)
        renamed = named.with_name("whatever")
        assert architecture_fingerprint(named) == architecture_fingerprint(renamed)
        assert architecture_fingerprint(named) != architecture_fingerprint(rsp_architecture(3))

    def test_stage_keys_separate_stages_and_inputs(self):
        assert stage_key("a", x="1") != stage_key("b", x="1")
        assert stage_key("a", x="1") != stage_key("a", x="2")
        assert stage_key("a", x="1") == stage_key("a", x="1")


def _scaled_copy(name, iterations, factor):
    """A kernel storing ``factor * A[i]``: its closure holds ``factor``."""

    def body(builder, index, state):
        value = builder.load("A", index)
        builder.store("B", index, builder.mul(value, builder.const(factor)))

    return Kernel(name=name, body=body, iterations=iterations)


class TestKernelDefinition:
    """The DFG memo's key: a kernel's name, iteration count and the
    definitions of its ``body`` and ``finalize``."""

    def test_equal_across_factory_calls_of_every_campaign_kernel(self):
        for suite in ("paper", "h264"):
            for first, second in zip(suite_kernels(suite), suite_kernels(suite)):
                assert first is not second
                assert kernel_definition(first) == kernel_definition(second), first.name

    def test_closure_values_iterations_and_name_tell_kernels_apart(self):
        assert kernel_definition(matrix_multiplication(4, 1)) != kernel_definition(
            matrix_multiplication(4, 3)
        )
        one = _scaled_copy("Scale", 4, 2)
        assert kernel_definition(one) == kernel_definition(_scaled_copy("Scale", 4, 2))
        assert kernel_definition(one) != kernel_definition(_scaled_copy("Scale", 4, 3))
        assert kernel_definition(one) != kernel_definition(_scaled_copy("Other", 4, 2))
        assert kernel_definition(one) != kernel_definition(one, 8)
        assert kernel_definition(one, 4) == kernel_definition(one)

    def test_closed_over_functions_and_unhashable_values(self):
        def kernel_over(coefficients):
            def scale(builder, value, index):
                return builder.mul(value, builder.const(coefficients[index]))

            def body(builder, index, state):
                builder.store("B", index, scale(builder, builder.load("A", index), index))

            return Kernel(name="Table", body=body, iterations=2)

        # A list is keyed by identity: the same list gives one key, an
        # equal but separate one another (it could be changed in place).
        shared = [3, 5]
        assert kernel_definition(kernel_over(shared)) == kernel_definition(kernel_over(shared))
        assert kernel_definition(kernel_over(shared)) != kernel_definition(kernel_over([3, 5]))
        # A tuple is keyed by value, through the closed-over helper.
        assert kernel_definition(kernel_over((3, 5))) == kernel_definition(kernel_over((3, 5)))
        assert kernel_definition(kernel_over((3, 5))) != kernel_definition(kernel_over((3, 6)))

    def test_a_function_that_closes_over_itself(self):
        def body(builder, index, state, depth=1):
            value = builder.load("A", index)
            if depth:
                body(builder, index + 2, state, depth - 1)
            builder.store("B", index, value)

        kernel = Kernel(name="Recursive", body=body, iterations=2)
        assert kernel_definition(kernel) == kernel_definition(kernel)
        assert len(kernel.build()) == 8


class TestSameNamedKernels:
    """Two kernels with one name but different bodies each get their own
    DFG from one mapper: the memo is keyed by definition, not name."""

    def test_matrix_multiplications_with_different_constants(self):
        target = rsp_architecture(2)
        mapper = RSPMapper()
        mapper.map_kernel(matrix_multiplication(4, 1), target)
        scaled = mapper.map_kernel(matrix_multiplication(4, 3), target)
        fresh = RSPMapper().map_kernel(matrix_multiplication(4, 3), target)
        assert matrix_multiplication(4, 1).name == matrix_multiplication(4, 3).name
        assert (len(scaled.dfg), scaled.cycles) == (len(fresh.dfg), fresh.cycles) == (288, 16)

    def test_user_kernel_named_like_a_registry_kernel(self):
        registry = get_kernel("MVM")

        def body(builder, index, state):
            product = builder.mul(builder.load("A", index), builder.load("X", index))
            builder.store("Y", index, product)

        user = Kernel(name="MVM", body=body, iterations=registry.iterations)
        target = rsp_architecture(2)
        mapper = RSPMapper()
        registry_result = mapper.map_kernel(registry, target)
        user_result = mapper.map_kernel(user, target)
        fresh = RSPMapper().map_kernel(user, target)
        assert user_result.cycles == fresh.cycles != registry_result.cycles
        assert len(user_result.dfg) == len(fresh.dfg) == 4 * registry.iterations

    def test_pipelines_on_one_store_build_each_dfg_once(self, monkeypatch, mvm):
        builds = []
        build = Kernel.build

        def counted(kernel, iterations=None):
            builds.append(kernel.name)
            return build(kernel, iterations)

        monkeypatch.setattr(Kernel, "build", counted)
        store = ArtifactStore()
        first = MappingPipeline(store=store).dfg_artifact(mvm)
        second = MappingPipeline(store=store).dfg_artifact(get_kernel("MVM"))
        assert second is first
        assert builds == ["MVM"]
        # The memo is not an artifact: the store counts and holds nothing.
        assert (store.stats.hits, store.stats.misses, store.stats.stores, len(store)) == (
            0,
            0,
            0,
            0,
        )


class TestPipelineBehaviour:
    def test_requires_base_reference(self):
        with pytest.raises(MappingError):
            MappingPipeline(base=rs_architecture(1))

    def test_rearrange_rejects_base_target(self, mvm):
        pipeline = MappingPipeline()
        with pytest.raises(MappingError):
            pipeline.rearrange_artifact(mvm, base_architecture())

    def test_run_matches_mapper_contract(self, mvm):
        pipeline = MappingPipeline()
        result = pipeline.run(mvm, rsp_architecture(2))
        assert result.kernel == "MVM"
        assert result.cycles >= result.base_cycles
        result.schedule.validate(result.dfg)

    def test_base_run_reuses_base_schedule_object(self, mvm):
        pipeline = MappingPipeline()
        result = pipeline.run(mvm, base_architecture())
        assert result.schedule is result.base_schedule
        assert result.stall_cycles == 0

    def test_in_memory_store_memoises_stages(self, mvm):
        pipeline = MappingPipeline()
        first = pipeline.base_schedule_artifact(mvm)
        second = pipeline.base_schedule_artifact(mvm)
        assert second.value is first.value
        assert not first.from_store and second.from_store
        assert pipeline.stats.timing("base_schedule").hits == 1
        assert pipeline.stats.timing("base_schedule").misses == 1

    def test_summary_restamped_with_target_name(self, mvm):
        pipeline = MappingPipeline()
        canonical = rsp_architecture(2)
        renamed = canonical.with_name("rsp(custom)")
        original = pipeline.rearrange_artifact(mvm, canonical)
        artifact = pipeline.rearrange_artifact(mvm, renamed)
        assert artifact.from_store  # structural fingerprint matched
        assert artifact.value.summary.architecture == "rsp(custom)"
        assert artifact.value.schedule.architecture.name == "rsp(custom)"
        # The rebound schedule is entry-identical to the stored one, which
        # keeps its original name for consumers using that spelling.
        assert original.value.schedule.architecture.name == "RSP#2"
        assert [e.name for e in artifact.value.schedule.operations()] == [
            e.name for e in original.value.schedule.operations()
        ]

    def test_stats_snapshot_diff(self, mvm):
        pipeline = MappingPipeline()
        pipeline.profile_artifact(mvm)
        snapshot = pipeline.stats.snapshot()
        pipeline.profile_artifact(mvm)
        delta = pipeline.stats.since(snapshot)
        assert delta["extract_profile"].hits == 1
        assert delta["extract_profile"].misses == 0
        assert "rearrange" not in delta


class TestPersistentPipeline:
    def test_warm_store_skips_scheduling_entirely(self, tmp_path, mvm):
        cold = MappingPipeline(store=ArtifactStore(tmp_path))
        cold_profile = cold.profile_artifact(mvm).value

        warm = MappingPipeline(store=ArtifactStore(tmp_path))
        warm_profile = warm.profile_artifact(mvm).value
        assert warm_profile == cold_profile
        # The profile was fetched by key; the schedule stage never ran.
        assert "base_schedule" not in warm.stats.stages
        assert warm.stats.timing("extract_profile").hits == 1
        assert warm.store.stats.hits == 1

    def test_warm_run_is_identical(self, tmp_path):
        # Every paper kernel on an RSP design with 2 and one with 3
        # multiplier stages; the warm pipeline reads every stage from disk.
        pairs = [
            (kernel, target)
            for target in (rsp_architecture(4), rsp_architecture(1, stages=3))
            for kernel in suite_kernels("paper")
        ]
        cold = MappingPipeline(store=ArtifactStore(tmp_path), generate_contexts=True)
        cold_results = [cold.run(kernel, target) for kernel, target in pairs]

        warm = MappingPipeline(store=ArtifactStore(tmp_path), generate_contexts=True)
        warm_results = [warm.run(kernel, target) for kernel, target in pairs]

        def full_entries(schedule):
            return [
                (e.operation, e.cycle, e.row, e.col, e.latency, e.occupancy, e.shared_unit)
                for e in schedule.entries_by_name().values()
            ]

        assert len(pairs) == 18
        for warm_result, cold_result in zip(warm_results, cold_results):
            assert warm_result.cycles == cold_result.cycles
            assert warm_result.stall_cycles == cold_result.stall_cycles
            assert warm_result.base_cycles == cold_result.base_cycles
            assert warm_result.schedule.length == cold_result.schedule.length
            assert full_entries(warm_result.schedule) == full_entries(cold_result.schedule)
            assert (
                list(warm_result.context.active_words())
                == list(cold_result.context.active_words())
            )
        for stage in ("base_schedule", "rearrange", "generate_context"):
            assert warm.stats.timing(stage).misses == 0

    def test_context_restamped_for_structural_alias(self, tmp_path, mvm):
        canonical = rsp_architecture(2)
        renamed = canonical.with_name("rsp(custom)")
        store_dir = tmp_path / "ctx"
        MappingPipeline(store=ArtifactStore(store_dir), generate_contexts=True).run(
            mvm, canonical
        )
        warm = MappingPipeline(store=ArtifactStore(store_dir), generate_contexts=True)
        result = warm.run(mvm, renamed)
        assert warm.stats.timing("generate_context").hits == 1
        assert result.context.name == "MVM@rsp(custom)"
        assert result.schedule.architecture.name == "rsp(custom)"

    def test_build_dfg_stage_is_never_persisted(self, tmp_path, mvm):
        pipeline = MappingPipeline(store=ArtifactStore(tmp_path))
        pipeline.profile_artifact(mvm)
        stages_on_disk = {path.name for path in (tmp_path / "artifacts").iterdir()}
        assert "build_dfg" not in stages_on_disk
        assert stages_on_disk == {"base_schedule", "extract_profile"}

    def test_rearranged_artifact_value_shape(self, tmp_path, mvm):
        pipeline = MappingPipeline(store=ArtifactStore(tmp_path))
        artifact = pipeline.rearrange_artifact(mvm, rs_architecture(2))
        assert isinstance(artifact.value, RearrangedSchedule)
        summary = artifact.value.summary
        assert summary.cycles == artifact.value.schedule.length
        assert summary.base_cycles == pipeline.base_schedule_artifact(mvm).value.length


#: The default 8x8 array with one read bus and two write buses per row.
NARROW_BUS_ARRAY = ArraySpec(row_buses=RowBusSpec(read_buses=1, write_buses=2))
#: Two targets that differ only in their row buses.
BUS_PAIR = (
    rsp_architecture(1, stages=3),
    replace(rsp_architecture(1, stages=3), name="RSP#1-narrow-bus", array=NARROW_BUS_ARRAY),
)
#: The default 17-point grid's non-base designs, stages 3-4, an RP-only
#: design and the bus pair.
MEMO_TARGETS = (
    [p.to_architecture() for p in enumerate_design_space() if p.kind != "base"]
    + [
        p.to_architecture()
        for p in enumerate_design_space(
            max_rows_shared=1, max_cols_shared=1, stage_options=(3, 4), include_base=False
        )
    ]
    + [replace(base_architecture(), name="RP", pipelining=PipeliningSpec(stages=2))]
    + list(BUS_PAIR)
)


class TestStallFreeMemo:
    """The ``rearrange`` node runs the unlimited-shared pass once per
    (base schedule, array, multiplier latency, sharing), gives every pass
    over one base schedule the same re-timing plan, and still reports what
    the uncached two-pass reference reports."""

    def test_rearrange_node_matches_the_uncached_reference(self, monkeypatch):
        passes = []
        plans = {}
        rearrange = mapping_nodes.rearrange_schedule

        def counted(base, dfg, target, unlimited_shared=False, plan=None):
            passes.append((base.kernel_name, unlimited_shared, target))
            assert plan is not None
            assert plans.setdefault(base.kernel_name, plan) is plan
            return rearrange(base, dfg, target, unlimited_shared=unlimited_shared, plan=plan)

        monkeypatch.setattr(mapping_nodes, "rearrange_schedule", counted)
        pipeline = MappingPipeline()
        kernels = suite_kernels("paper") + suite_kernels("h264")
        bus_pair_stall_free = {target.name: {} for target in BUS_PAIR}
        for kernel in kernels:
            base = pipeline.base_schedule_artifact(kernel).value
            dfg = pipeline.dfg_artifact(kernel).value
            for target in MEMO_TARGETS:
                summary = pipeline.rearrange_artifact(kernel, target).value.summary
                expected = evaluate_rearrangement(base, dfg, target)
                assert (summary.cycles, summary.stall_free_cycles, summary.stall_cycles) == (
                    expected.cycles,
                    expected.stall_free_cycles,
                    expected.stall_cycles,
                ), (kernel.name, target.name)
                if target in BUS_PAIR:
                    bus_pair_stall_free[target.name][kernel.name] = summary.stall_free_cycles

        # The bus pair's stall-free lengths differ, so a memo that merged
        # the two targets would have failed the comparison above.
        default_buses, narrow_buses = bus_pair_stall_free.values()
        assert default_buses != narrow_buses

        structures = {architecture_fingerprint(target) for target in MEMO_TARGETS}
        constraint_sets = {
            (target.array, target.multiplier_latency, target.uses_sharing)
            for target in MEMO_TARGETS
        }
        assert len(constraint_sets) == 6
        for kernel in kernels:
            actual = [t for name, unlimited, t in passes if name == kernel.name and not unlimited]
            stall_free = [
                (t.array, t.multiplier_latency, t.uses_sharing)
                for name, unlimited, t in passes
                if name == kernel.name and unlimited
            ]
            assert len(actual) == len(structures)
            assert len(stall_free) == len(constraint_sets)
            assert set(stall_free) == constraint_sets
