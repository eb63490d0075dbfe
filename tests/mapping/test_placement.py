"""Tests for the resource tracker and column-preference helper."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import base_architecture, rs_architecture, rsp_architecture
from repro.errors import PlacementError
from repro.ir import Operation, OpType
from repro.mapping.placement import ResourceTracker, column_preference, reachable_units


def load_op(name="ld"):
    return Operation(name, OpType.LOAD, array="x", index=0)


def store_op(name="st"):
    return Operation(name, OpType.STORE, array="z", index=0)


def mul_op(name="mul"):
    return Operation(name, OpType.MUL)


def add_op(name="add"):
    return Operation(name, OpType.ADD)


def pe_free(tracker, cycle, row, col, duration):
    """Whether an operation that needs nothing but its PE fits there."""
    return tracker.placement_feasible(add_op(), cycle, row, col, duration)[0]


def snapshot(tracker):
    """Everything the tracker records."""
    return copy.deepcopy(vars(tracker))


class TestPEOccupancy:
    def test_claim_and_conflict(self, base_arch):
        tracker = ResourceTracker(base_arch)
        assert pe_free(tracker, 0, 0, 0, duration=2)
        tracker.claim(add_op("a"), 0, 0, 0, 2, None)
        assert not pe_free(tracker, 1, 0, 0, duration=1)
        assert pe_free(tracker, 2, 0, 0, duration=1)
        with pytest.raises(PlacementError):
            tracker.claim(add_op("b"), 1, 0, 0, 1, None)

    def test_corner_pes_of_a_non_square_array(self):
        tracker = ResourceTracker(base_architecture(rows=3, cols=5))
        corners = [(0, 0), (0, 4), (2, 0), (2, 4)]
        for row, col in corners:
            tracker.claim(add_op(f"op{row}{col}"), 0, row, col, 1, None)
        # Bit ``row * cols + col`` of the cycle's mask belongs to PE (row, col).
        assert tracker.busy_mask(0, 1) == (1 << 0) | (1 << 4) | (1 << 10) | (1 << 14)
        for row in range(3):
            for col in range(5):
                assert pe_free(tracker, 0, row, col, 1) == ((row, col) not in corners)
                assert pe_free(tracker, 1, row, col, 1)

    def test_multi_cycle_occupancy(self):
        tracker = ResourceTracker(base_architecture(rows=3, cols=5))
        tracker.claim(mul_op(), 1, 2, 4, 3, None)
        bit = 1 << 14
        assert [tracker.busy_mask(cycle, 1) for cycle in range(5)] == [0, bit, bit, bit, 0]
        assert tracker.busy_mask(0, 2) == bit
        assert pe_free(tracker, 0, 2, 4, duration=1)
        assert not pe_free(tracker, 0, 2, 4, duration=2)
        assert pe_free(tracker, 4, 2, 4, duration=5)
        # A neighbour in the same row or column is unaffected.
        assert pe_free(tracker, 1, 2, 3, duration=3)
        assert pe_free(tracker, 1, 1, 4, duration=3)

    def test_full_cycle_sets_every_bit(self):
        tracker = ResourceTracker(base_architecture(rows=3, cols=5))
        for row in range(3):
            for col in range(5):
                tracker.claim(add_op(f"op{row}{col}"), 0, row, col, 1, None)
        assert tracker.busy_mask(0, 1) == (1 << 15) - 1
        assert tracker.busy_mask(1, 1) == 0

    def test_positions_outside_the_array_are_rejected(self):
        tracker = ResourceTracker(rs_architecture(1, rows=3, cols=5))
        # (0, 5) would otherwise alias the bit of PE (1, 0).
        for row, col in [(0, 5), (3, 0), (-1, 0), (0, -1)]:
            for operation in (add_op(), load_op(), mul_op()):
                with pytest.raises(PlacementError, match="outside the 3x5 array"):
                    tracker.placement_feasible(operation, 0, row, col, 1)
                with pytest.raises(PlacementError, match="outside the 3x5 array"):
                    tracker.claim(operation, 0, row, col, 1, None)
        assert tracker.busy_mask(0, 1) == 0
        assert vars(tracker) == vars(ResourceTracker(rs_architecture(1, rows=3, cols=5)))

    def test_double_booking_names_the_holder(self):
        tracker = ResourceTracker(base_architecture(rows=3, cols=5))
        tracker.claim(add_op("before"), 0, 1, 3, 2, None)
        tracker.claim(mul_op("holder"), 2, 1, 3, 2, None)
        tracker.claim(add_op("neighbour"), 3, 1, 2, 1, None)
        message = r"PE \(1,3\) already busy at cycle 3 with 'holder'"
        with pytest.raises(PlacementError, match=message):
            tracker.claim(add_op("intruder"), 3, 1, 3, 1, None)

    def test_failed_claim_pe_leaves_the_tracker_unchanged(self, base_arch):
        tracker = ResourceTracker(base_arch)
        tracker.claim(add_op("a"), 2, 0, 0, 1, None)
        before = snapshot(tracker)
        with pytest.raises(PlacementError, match="'a'"):
            tracker.claim(add_op("b"), 0, 0, 0, 3, None)
        assert vars(tracker) == before
        assert pe_free(tracker, 0, 0, 0, duration=2)


class TestBusSlots:
    def test_read_bus_limit(self, base_arch):
        tracker = ResourceTracker(base_arch)
        assert tracker.bus_free(0, 0, OpType.LOAD)
        tracker.claim(load_op("l1"), 0, 0, 0, 1, None)
        tracker.claim(load_op("l2"), 0, 0, 1, 1, None)
        assert not tracker.bus_free(0, 0, OpType.LOAD)
        assert tracker.placement_feasible(load_op("l3"), 0, 0, 2, 1) == (False, None)
        # Other rows and other cycles are unaffected.
        assert tracker.bus_free(0, 1, OpType.LOAD)
        assert tracker.bus_free(1, 0, OpType.LOAD)
        assert tracker.placement_feasible(load_op("l3"), 0, 1, 2, 1) == (True, None)
        assert tracker.placement_feasible(load_op("l3"), 1, 0, 2, 1) == (True, None)

    def test_write_bus_limit(self, base_arch):
        tracker = ResourceTracker(base_arch)
        tracker.claim(store_op("s1"), 0, 0, 0, 1, None)
        assert not tracker.bus_free(0, 0, OpType.STORE)
        assert tracker.placement_feasible(store_op("s2"), 0, 0, 1, 1) == (False, None)

    def test_compute_ops_do_not_need_buses(self, base_arch):
        tracker = ResourceTracker(base_arch)
        assert tracker.bus_free(0, 0, OpType.ADD)
        for col in range(base_arch.array.cols):
            assert tracker.try_claim(add_op(f"a{col}"), 0, 0, col, 1) == (True, None)
        assert tracker.bus_free(0, 0, OpType.LOAD) and tracker.bus_free(0, 0, OpType.STORE)

    def test_claim_bus_beyond_the_limit_is_rejected(self, base_arch):
        tracker = ResourceTracker(base_arch)
        tracker.claim(store_op("s1"), 3, 2, 0, 1, None)
        before = snapshot(tracker)
        with pytest.raises(PlacementError, match="row 2 has no free write bus at cycle 3"):
            tracker.claim(store_op("s2"), 3, 2, 1, 1, None)
        assert vars(tracker) == before


class TestSharedUnits:
    def test_reachable_units_row_and_column(self):
        # PE (2, 5) of RS#3 reaches two units of row 2 and one of column 5.
        tracker = ResourceTracker(rs_architecture(3))
        units = []
        for name, (row, col) in (("m1", (2, 0)), ("m2", (2, 1)), ("m3", (0, 5))):
            feasible, unit = tracker.placement_feasible(mul_op(), 0, 2, 5, 1)
            assert feasible
            units.append(unit)
            # Take that unit from another PE of its row or column.
            tracker.claim(mul_op(name), 0, row, col, 1, unit)
        assert sorted(units) == [("col", 5, 0), ("row", 2, 0), ("row", 2, 1)]
        assert tracker.placement_feasible(mul_op(), 0, 2, 5, 1) == (False, None)
        # PEs of other rows and columns reach units of their own.
        assert tracker.placement_feasible(mul_op(), 0, 1, 4, 1) == (True, ("row", 1, 0))
        assert tracker.placement_feasible(mul_op(), 0, 2, 4, 1) == (True, ("col", 4, 0))

    def test_reachable_unit_table_lists_row_units_first(self):
        # A 3x4 array with two row units per row and three column units per
        # column: each PE's entry is its row's units, then its column's,
        # each by ordinal, at the PE's bit.
        table = reachable_units(3, 4, 2, 3)
        assert len(table) == 12
        for row in range(3):
            for col in range(4):
                assert table[row * 4 + col] == (
                    ("row", row, 0),
                    ("row", row, 1),
                    ("col", col, 0),
                    ("col", col, 1),
                    ("col", col, 2),
                )
        assert reachable_units(2, 2, 0, 0) == ((), (), (), ())

    def test_trackers_of_one_topology_share_the_table(self):
        # RSP#2 shares RS#2's topology at another depth; RS#3 has another.
        rs2, rsp2, rs3 = rs_architecture(2), rsp_architecture(2, stages=3), rs_architecture(3)
        tables = [
            vars(ResourceTracker(design, unlimited_shared))["_reachable"]
            for design, unlimited_shared in ((rs2, False), (rsp2, False), (rs2, True), (rs3, False))
        ]
        assert tables[0] is tables[1] is tables[2]
        assert tables[3] is not tables[0] and tables[3] != tables[0]
        assert isinstance(tables[0], tuple)
        assert all(isinstance(units, tuple) for units in tables[0])

    def test_no_units_on_base(self, base_arch):
        tracker = ResourceTracker(base_arch)
        for col in range(base_arch.array.cols):
            assert tracker.try_claim(mul_op(f"m{col}"), 0, 0, col, 1) == (True, None)
        assert vars(tracker)["_unit_issues"] == {}

    def test_allocation_prefers_row_then_column(self):
        tracker = ResourceTracker(rs_architecture(3))
        assert tracker.try_claim(mul_op("m1"), 0, 2, 5, 1) == (True, ("row", 2, 0))
        assert tracker.try_claim(mul_op("m2"), 0, 2, 4, 1) == (True, ("row", 2, 1))
        assert tracker.try_claim(mul_op("m3"), 0, 1, 5, 1) == (True, ("row", 1, 0))
        # Row 2's units are taken: PE (2, 3) falls back to its column unit.
        assert tracker.try_claim(mul_op("m4"), 0, 2, 3, 1) == (True, ("col", 3, 0))
        assert tracker.try_claim(mul_op("m5"), 0, 2, 2, 1) == (True, ("col", 2, 0))
        assert vars(tracker)["_unit_issues"] == {
            (("row", 2, 0), 0): "m1",
            (("row", 2, 1), 0): "m2",
            (("row", 1, 0), 0): "m3",
            (("col", 3, 0), 0): "m4",
            (("col", 2, 0), 0): "m5",
        }
        # The next cycle is free again.
        assert tracker.placement_feasible(mul_op(), 1, 2, 5, 1) == (True, ("row", 2, 0))

    def test_double_claim_rejected(self):
        tracker = ResourceTracker(rs_architecture(1))
        feasible, unit = tracker.placement_feasible(mul_op(), 0, 0, 0, 1)
        assert feasible
        tracker.claim(mul_op("m1"), 0, 0, 0, 1, unit)
        before = snapshot(tracker)
        with pytest.raises(PlacementError, match=r"already issues 'm1' at cycle 0"):
            tracker.claim(mul_op("m2"), 0, 0, 1, 1, unit)
        assert vars(tracker) == before

    def test_unlimited_mode_never_runs_out(self):
        tracker = ResourceTracker(rs_architecture(1), unlimited_shared=True)
        units = {tracker.placement_feasible(mul_op(), 0, 0, 0, 1)[1] for _ in range(20)}
        assert len(units) == 20
        # Claims record no unit issue in unlimited mode.
        tracker.claim(mul_op("m"), 0, 0, 0, 1, ("row", 0, 0))
        tracker.claim(mul_op("m2"), 0, 0, 1, 1, ("row", 0, 0))
        assert vars(tracker)["_unit_issues"] == {}
        assert tracker.busy_mask(0, 1) == 0b11


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
        before = snapshot(tracker)
        extra = Operation("extra", optype, array="x", index=limit)
        assert tracker.placement_feasible(extra, 1, 0, limit, duration=1) == (False, None)
        with pytest.raises(PlacementError, match=f"row 0 has no free {kind} bus at cycle 1"):
            tracker.claim(extra, 1, 0, limit, 1, None)
        assert vars(tracker) == before
        assert pe_free(tracker, 1, 0, limit, duration=1)
        # The same row in the next cycle, and another row, still take it.
        tracker.claim(extra, 2, 0, limit, 1, None)
        tracker.claim(Operation("other", optype, array="x", index=0), 1, 1, 0, 1, None)

    def test_failed_claim_leaves_the_tracker_unchanged(self):
        tracker = ResourceTracker(rs_architecture(1))
        tracker.claim(mul_op("m1"), 0, 0, 0, 1, ("row", 0, 0))
        before = snapshot(tracker)
        with pytest.raises(PlacementError, match="'m1'"):
            tracker.claim(mul_op("m2"), 0, 0, 1, 1, ("row", 0, 0))
        assert vars(tracker) == before
        assert pe_free(tracker, 0, 0, 1, duration=1)


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
