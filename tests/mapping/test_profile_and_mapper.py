"""Tests for schedule-profile extraction and the top-level mapper."""

from __future__ import annotations

import pytest

from repro.arch import base_architecture, paper_architectures, rs_architecture, rsp_architecture
from repro.core.stalls import ScheduleProfile, StallEstimator
from repro.errors import MappingError
from repro.kernels import get_kernel, matrix_multiplication
from repro.mapping import RSPMapper, extract_profile
from repro.mapping.mapper import MappingResult


class TestProfileExtraction:
    def test_profile_counts_multiplication_issues(self, mapper, hydro_kernel):
        schedule = mapper.base_schedule(hydro_kernel)
        dfg = mapper.build_dfg(hydro_kernel)
        profile = extract_profile(schedule, dfg)
        assert isinstance(profile, ScheduleProfile)
        assert profile.kernel == "Hydro"
        assert profile.length == schedule.length
        assert len(profile.critical_issues) == dfg.multiplication_count()
        assert profile.rows == 8 and profile.cols == 8

    def test_profile_flags_immediate_dependents(self, mapper):
        kernel = matrix_multiplication(order=2)
        result = mapper.map_kernel(kernel, base_architecture())
        profile = extract_profile(result.base_schedule, result.dfg)
        # At least one product feeds an addition scheduled right after it.
        assert any(issue.has_immediate_dependent for issue in profile.critical_issues)

    def test_profile_of_multiplication_free_kernel_is_empty(self, mapper):
        kernel = get_kernel("SAD")
        schedule = mapper.base_schedule(kernel)
        profile = extract_profile(schedule, mapper.build_dfg(kernel))
        assert profile.critical_issues == ()

    def test_estimator_tracks_exact_rearrangement_stalls(self, mapper, hydro_kernel):
        """The fast estimate and the exact rearrangement agree on RS#1 pressure.

        The estimate only models the multiplier shortage itself (not the
        cascade of PE-occupancy conflicts the rearrangement also pays), so
        the two are compared qualitatively: both must report stalls on the
        under-provisioned RS#1 design and both must report none once the
        sharing capacity is generous (RS#3/RS#4).
        """
        schedule = mapper.base_schedule(hydro_kernel)
        profile = extract_profile(schedule, mapper.build_dfg(hydro_kernel))
        estimator = StallEstimator()
        estimates = {
            design: estimator.estimate_rs_stalls(profile, rs_architecture(design))
            for design in range(1, 5)
        }
        exact = {
            design: mapper.map_kernel(hydro_kernel, rs_architecture(design)).stall_cycles
            for design in range(1, 5)
        }
        assert estimates[1] > 0 and exact[1] > 0
        assert estimates[3] == 0 and exact[3] == 0
        assert estimates[4] == 0 and exact[4] == 0
        # The estimate is monotone in the sharing capacity.
        assert estimates[1] >= estimates[2] >= estimates[3] >= estimates[4]


class TestRSPMapper:
    def test_requires_base_reference(self):
        with pytest.raises(MappingError):
            RSPMapper(base=rs_architecture(1))

    def test_base_mapping_result_identity(self, mapper, mvm_kernel, base_arch):
        result = mapper.map_kernel(mvm_kernel, base_arch)
        assert isinstance(result, MappingResult)
        assert result.cycles == result.base_cycles
        assert result.stall_cycles == 0
        assert result.schedule is result.base_schedule

    def test_base_schedule_is_cached(self, mapper, mvm_kernel):
        first = mapper.base_schedule(mvm_kernel)
        second = mapper.base_schedule(mvm_kernel)
        assert first is second

    def test_dimension_mismatch_rejected(self, mapper, mvm_kernel):
        small = rs_architecture(1, rows=4, cols=4)
        with pytest.raises(MappingError):
            mapper.map_kernel(mvm_kernel, small)

    def test_rearranged_schedule_valid_on_target(self, mapper, hydro_kernel):
        result = mapper.map_kernel(hydro_kernel, rsp_architecture(2))
        result.schedule.validate(result.dfg)
        assert result.architecture.name == "RSP#2"
        assert result.cycles >= result.base_cycles

    def test_context_generation_opt_in(self, mvm_kernel):
        with_context = RSPMapper(generate_contexts=True)
        result = with_context.map_kernel(mvm_kernel, rs_architecture(2))
        assert result.context is not None
        assert result.context.active_word_count() == len(result.schedule)

    def test_iteration_override_changes_dfg_size(self, mapper, mvm_kernel):
        short = mapper.build_dfg(mvm_kernel, iterations=8)
        full = mapper.build_dfg(mvm_kernel)
        assert len(short) < len(full)

    def test_max_multiplications_metric_exposed(self, mapper, mvm_kernel):
        result = mapper.map_kernel(mvm_kernel, base_architecture())
        assert result.max_multiplications_per_cycle >= 1
