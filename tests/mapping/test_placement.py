"""Tests for the resource tracker and column-preference helper."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import base_architecture, rs_architecture, rsp_architecture
from repro.errors import PlacementError
from repro.ir import Operation, OpType
from repro.mapping.placement import ResourceTracker, column_preference


def load_op(name="ld"):
    return Operation(name, OpType.LOAD, array="x", index=0)


def mul_op(name="mul"):
    return Operation(name, OpType.MUL)


def answers(tracker, cycles=4):
    """Everything the tracker reports about its first ``cycles`` cycles."""
    spec = tracker.architecture.array
    pes = [(row, col) for row in range(spec.rows) for col in range(spec.cols)]
    return [
        (
            tracker.busy_mask(cycle, 1),
            [tracker.pe_free(cycle, row, col, 1) for row, col in pes],
            [tracker.available_shared_unit(cycle, row, col) for row, col in pes],
            [
                (
                    tracker.bus_free(cycle, row, OpType.LOAD),
                    tracker.bus_free(cycle, row, OpType.STORE),
                    tracker.multiplications_in_row(cycle, row),
                )
                for row in range(spec.rows)
            ],
        )
        for cycle in range(cycles)
    ]


class TestPEOccupancy:
    def test_claim_and_conflict(self, base_arch):
        tracker = ResourceTracker(base_arch)
        assert tracker.pe_free(0, 0, 0, duration=2)
        tracker.claim_pe(0, 0, 0, duration=2, name="a")
        assert not tracker.pe_free(1, 0, 0, duration=1)
        assert tracker.pe_free(2, 0, 0, duration=1)
        with pytest.raises(PlacementError):
            tracker.claim_pe(1, 0, 0, duration=1, name="b")

    def test_corner_pes_of_a_non_square_array(self):
        tracker = ResourceTracker(base_architecture(rows=3, cols=5))
        corners = [(0, 0), (0, 4), (2, 0), (2, 4)]
        for row, col in corners:
            tracker.claim_pe(0, row, col, duration=1, name=f"op{row}{col}")
        # Bit ``row * cols + col`` of the cycle's mask belongs to PE (row, col).
        assert tracker.busy_mask(0, 1) == (1 << 0) | (1 << 4) | (1 << 10) | (1 << 14)
        for row in range(3):
            for col in range(5):
                assert tracker.pe_free(0, row, col, 1) == ((row, col) not in corners)
                assert tracker.pe_free(1, row, col, 1)

    def test_multi_cycle_occupancy(self):
        tracker = ResourceTracker(base_architecture(rows=3, cols=5))
        tracker.claim_pe(1, 2, 4, duration=3, name="mul")
        bit = 1 << 14
        assert [tracker.busy_mask(cycle, 1) for cycle in range(5)] == [0, bit, bit, bit, 0]
        assert tracker.busy_mask(0, 2) == bit
        assert tracker.pe_free(0, 2, 4, duration=1)
        assert not tracker.pe_free(0, 2, 4, duration=2)
        assert tracker.pe_free(4, 2, 4, duration=5)
        # A neighbour in the same row or column is unaffected.
        assert tracker.pe_free(1, 2, 3, duration=3)
        assert tracker.pe_free(1, 1, 4, duration=3)

    def test_full_cycle_sets_every_bit(self):
        tracker = ResourceTracker(base_architecture(rows=3, cols=5))
        for row in range(3):
            for col in range(5):
                tracker.claim_pe(0, row, col, duration=1, name=f"op{row}{col}")
        assert tracker.busy_mask(0, 1) == (1 << 15) - 1
        assert tracker.busy_mask(1, 1) == 0

    def test_positions_outside_the_array_are_rejected(self):
        tracker = ResourceTracker(rs_architecture(1, rows=3, cols=5))
        # (0, 5) would otherwise alias the bit of PE (1, 0).
        for row, col in [(0, 5), (3, 0), (-1, 0), (0, -1)]:
            with pytest.raises(PlacementError, match="outside the 3x5 array"):
                tracker.pe_free(0, row, col, 1)
            with pytest.raises(PlacementError, match="outside the 3x5 array"):
                tracker.claim_pe(0, row, col, 1, "op")
            with pytest.raises(PlacementError, match="outside the 3x5 array"):
                tracker.available_shared_unit(0, row, col)
        assert tracker.busy_mask(0, 1) == 0

    def test_double_booking_names_the_holder(self):
        tracker = ResourceTracker(base_architecture(rows=3, cols=5))
        tracker.claim_pe(2, 1, 3, duration=2, name="holder")
        message = r"PE \(1,3\) already busy at cycle 3 with 'holder'"
        with pytest.raises(PlacementError, match=message):
            tracker.claim_pe(3, 1, 3, duration=1, name="intruder")

    def test_failed_claim_pe_leaves_the_tracker_unchanged(self, base_arch):
        tracker = ResourceTracker(base_arch)
        tracker.claim_pe(2, 0, 0, duration=1, name="a")
        before = answers(tracker)
        with pytest.raises(PlacementError, match="'a'"):
            tracker.claim_pe(0, 0, 0, duration=3, name="b")
        assert answers(tracker) == before
        assert tracker.pe_free(0, 0, 0, duration=2)


class TestBusSlots:
    def test_read_bus_limit(self, base_arch):
        tracker = ResourceTracker(base_arch)
        assert tracker.bus_free(0, 0, OpType.LOAD)
        tracker.claim_bus(0, 0, OpType.LOAD)
        tracker.claim_bus(0, 0, OpType.LOAD)
        assert not tracker.bus_free(0, 0, OpType.LOAD)
        # Other rows and other cycles are unaffected.
        assert tracker.bus_free(0, 1, OpType.LOAD)
        assert tracker.bus_free(1, 0, OpType.LOAD)

    def test_write_bus_limit(self, base_arch):
        tracker = ResourceTracker(base_arch)
        tracker.claim_bus(0, 0, OpType.STORE)
        assert not tracker.bus_free(0, 0, OpType.STORE)

    def test_compute_ops_do_not_need_buses(self, base_arch):
        tracker = ResourceTracker(base_arch)
        assert tracker.bus_free(0, 0, OpType.ADD)

    def test_claim_bus_beyond_the_limit_is_rejected(self, base_arch):
        tracker = ResourceTracker(base_arch)
        tracker.claim_bus(3, 2, OpType.STORE)
        before = answers(tracker)
        with pytest.raises(PlacementError, match="row 2 has no free write bus at cycle 3"):
            tracker.claim_bus(3, 2, OpType.STORE)
        assert answers(tracker) == before


class TestSharedUnits:
    def test_reachable_units_row_and_column(self):
        tracker = ResourceTracker(rs_architecture(3))
        units = tracker.reachable_units(2, 5)
        assert ("row", 2, 0) in units and ("row", 2, 1) in units
        assert ("col", 5, 0) in units
        assert len(units) == 3

    def test_no_units_on_base(self, base_arch):
        tracker = ResourceTracker(base_arch)
        assert tracker.reachable_units(0, 0) == []

    def test_allocation_prefers_row_then_column(self):
        tracker = ResourceTracker(rs_architecture(3))
        first = tracker.available_shared_unit(0, 2, 5)
        assert first == ("row", 2, 0)
        tracker.claim_shared_unit(first, 0, "m1")
        second = tracker.available_shared_unit(0, 2, 5)
        assert second == ("row", 2, 1)
        tracker.claim_shared_unit(second, 0, "m2")
        third = tracker.available_shared_unit(0, 2, 5)
        assert third == ("col", 5, 0)
        tracker.claim_shared_unit(third, 0, "m3")
        assert tracker.available_shared_unit(0, 2, 5) is None
        # The next cycle is free again.
        assert tracker.available_shared_unit(1, 2, 5) == ("row", 2, 0)

    def test_double_claim_rejected(self):
        tracker = ResourceTracker(rs_architecture(1))
        unit = tracker.available_shared_unit(0, 0, 0)
        tracker.claim_shared_unit(unit, 0, "m1")
        with pytest.raises(PlacementError):
            tracker.claim_shared_unit(unit, 0, "m2")

    def test_unlimited_mode_never_runs_out(self):
        tracker = ResourceTracker(rs_architecture(1), unlimited_shared=True)
        units = {tracker.available_shared_unit(0, 0, 0) for _ in range(20)}
        assert len(units) == 20
        # Claims are no-ops in unlimited mode.
        tracker.claim_shared_unit(("row", 0, 0), 0, "m")
        tracker.claim_shared_unit(("row", 0, 0), 0, "m2")


class TestCombinedFeasibility:
    def test_multiplication_needs_shared_unit_on_rs(self):
        tracker = ResourceTracker(rs_architecture(1))
        feasible, unit = tracker.placement_feasible(mul_op(), 0, 0, 0, duration=1)
        assert feasible and unit == ("row", 0, 0)
        tracker.claim(mul_op("m1"), 0, 0, 0, 1, unit)
        feasible, unit = tracker.placement_feasible(mul_op("m2"), 0, 0, 1, duration=1)
        assert not feasible

    def test_multiplication_on_base_needs_no_unit(self, base_arch):
        tracker = ResourceTracker(base_arch)
        feasible, unit = tracker.placement_feasible(mul_op(), 0, 0, 0, duration=1)
        assert feasible and unit is None

    def test_load_blocked_by_bus(self, base_arch):
        tracker = ResourceTracker(base_arch)
        tracker.claim(load_op("l1"), 0, 0, 0, 1, None)
        tracker.claim(load_op("l2"), 0, 0, 1, 1, None)
        feasible, _ = tracker.placement_feasible(load_op("l3"), 0, 0, 2, duration=1)
        assert not feasible

    @pytest.mark.parametrize(
        "optype, kind, limit", [(OpType.LOAD, "read", 2), (OpType.STORE, "write", 1)]
    )
    def test_claim_checks_row_bus_capacity(self, base_arch, optype, kind, limit):
        tracker = ResourceTracker(base_arch)
        for col in range(limit):
            tracker.claim(Operation(f"m{col}", optype, array="x", index=col), 1, 0, col, 1, None)
        before = answers(tracker)
        extra = Operation("extra", optype, array="x", index=limit)
        assert tracker.placement_feasible(extra, 1, 0, limit, duration=1) == (False, None)
        with pytest.raises(PlacementError, match=f"row 0 has no free {kind} bus at cycle 1"):
            tracker.claim(extra, 1, 0, limit, 1, None)
        assert answers(tracker) == before
        assert tracker.pe_free(1, 0, limit, duration=1)
        # The same row in the next cycle, and another row, still take it.
        tracker.claim(extra, 2, 0, limit, 1, None)
        tracker.claim(Operation("other", optype, array="x", index=0), 1, 1, 0, 1, None)

    def test_failed_claim_leaves_the_tracker_unchanged(self):
        tracker = ResourceTracker(rs_architecture(1))
        tracker.claim(mul_op("m1"), 0, 0, 0, 1, ("row", 0, 0))
        before = answers(tracker)
        with pytest.raises(PlacementError, match="'m1'"):
            tracker.claim(mul_op("m2"), 0, 0, 1, 1, ("row", 0, 0))
        assert answers(tracker) == before
        assert tracker.pe_free(0, 0, 1, duration=1)
        assert tracker.multiplications_in_row(0, 0) == 1

    def test_mult_row_balancing_counter(self, base_arch):
        tracker = ResourceTracker(base_arch)
        assert tracker.multiplications_in_row(0, 3) == 0
        tracker.claim(mul_op("m1"), 0, 3, 0, 1, None)
        assert tracker.multiplications_in_row(0, 3) == 1
        tracker.claim(mul_op("m2"), 0, 3, 1, 1, None)
        assert tracker.multiplications_in_row(0, 3) == 2


#: Small arrays so random placements collide: a base design, an RS design
#: (one row-shared multiplier per row), an RSP design with column-shared
#: units as well, and the RS design in unlimited-shared mode.
TRACKER_CONFIGS = (
    (base_architecture(rows=2, cols=3), False),
    (rs_architecture(1, rows=2, cols=3), False),
    (rsp_architecture(3, rows=2, cols=3, stages=2), False),
    (rs_architecture(1, rows=2, cols=3), True),
)

placements = st.lists(
    st.tuples(
        st.sampled_from([OpType.LOAD, OpType.STORE, OpType.MUL, OpType.ADD]),
        st.integers(0, 3),  # cycle
        st.integers(0, 1),  # row
        st.integers(0, 2),  # col
        st.integers(1, 3),  # duration
    ),
    max_size=40,
)


class TestTryClaim:
    @settings(max_examples=150, deadline=None)
    @given(config=st.sampled_from(TRACKER_CONFIGS), steps=placements)
    def test_matches_placement_feasible_then_claim(self, config, steps):
        architecture, unlimited = config
        tracker = ResourceTracker(architecture, unlimited_shared=unlimited)
        twin = ResourceTracker(architecture, unlimited_shared=unlimited)
        for index, (optype, cycle, row, col, duration) in enumerate(steps):
            operation = Operation(f"op{index}", optype, array="x", index=index)
            expected = twin.placement_feasible(operation, cycle, row, col, duration)
            assert tracker.try_claim(operation, cycle, row, col, duration) == expected
            if expected[0]:
                twin.claim(operation, cycle, row, col, duration, expected[1])
            assert vars(tracker) == vars(twin)

    @pytest.mark.parametrize(
        "architecture, held, blocked",
        [
            # PE busy for part of the duration.
            (base_architecture(), [(mul_op("m1"), 1, 0, 0, 2)], (mul_op("m2"), 0, 0, 0, 2)),
            # Both read buses of row 0 taken.
            (
                base_architecture(),
                [(load_op("l1"), 0, 0, 0, 1), (load_op("l2"), 0, 0, 1, 1)],
                (load_op("l3"), 0, 0, 2, 1),
            ),
            # The row's one shared multiplier already issues.
            (rs_architecture(1), [(mul_op("m1"), 0, 0, 0, 1)], (mul_op("m2"), 0, 0, 1, 1)),
        ],
    )
    def test_failure_leaves_the_tracker_unchanged(self, architecture, held, blocked):
        tracker = ResourceTracker(architecture)
        for placement in held:
            assert tracker.try_claim(*placement)[0]
        before = copy.deepcopy(vars(tracker))
        assert tracker.try_claim(*blocked) == (False, None)
        assert vars(tracker) == before

    def test_positions_outside_the_array_are_rejected(self):
        tracker = ResourceTracker(rs_architecture(1, rows=3, cols=5))
        for row, col in [(0, 5), (3, 0), (-1, 0), (0, -1)]:
            with pytest.raises(PlacementError, match="outside the 3x5 array"):
                tracker.try_claim(mul_op(), 0, row, col, 1)
        assert tracker.busy_mask(0, 1) == 0


class TestColumnPreference:
    def test_preferred_column_first(self):
        assert column_preference(0, 4)[0] == 0
        assert column_preference(5, 4)[0] == 1

    def test_all_columns_visited_once(self):
        order = column_preference(3, 8)
        assert sorted(order) == list(range(8))
        assert len(order) == 8

    def test_invalid_column_count(self):
        with pytest.raises(PlacementError):
            column_preference(0, 0)
