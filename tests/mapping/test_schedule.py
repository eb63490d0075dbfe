"""Tests for the schedule data structure and its validation."""

from __future__ import annotations

import copyreg
import io
import pickle
from dataclasses import replace

import pytest

from repro.arch import base_architecture, rs_architecture, rsp_architecture
from repro.errors import SchedulingError
from repro.ir import DFGBuilder, Operation, OpType
from repro.kernels import paper_suite
from repro.mapping.schedule import Schedule, ScheduledOperation


def tiny_dfg():
    builder = DFGBuilder("tiny")
    a = builder.load("x", 0)
    b = builder.load("y", 0)
    c = builder.mul(a, b)
    builder.store("z", 0, c)
    return builder.build(), (a, b, c)


def entry(op: Operation, cycle: int, row: int, col: int, latency: int = 1, shared=None):
    return ScheduledOperation(operation=op, cycle=cycle, row=row, col=col,
                              latency=latency, shared_unit=shared)


class TestScheduledOperation:
    def test_finish_cycle_and_position(self):
        op = Operation("m", OpType.MUL)
        scheduled = entry(op, cycle=3, row=1, col=2, latency=2)
        assert scheduled.finish_cycle == 5
        assert scheduled.position == (1, 2)
        assert scheduled.is_multiplication

    def test_invalid_values_rejected(self):
        op = Operation("m", OpType.MUL)
        with pytest.raises(SchedulingError):
            entry(op, cycle=-1, row=0, col=0)
        with pytest.raises(SchedulingError):
            entry(op, cycle=0, row=0, col=0, latency=0)
        with pytest.raises(SchedulingError):
            ScheduledOperation(operation=op, cycle=0, row=-1, col=0)


class TestScheduleBasics:
    def test_add_and_length(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch, "tiny")
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 1, 0, 0, latency=2))
        assert len(schedule) == 3
        assert schedule.length == 3
        assert schedule.get(c).cycle == 1
        assert len(schedule.operations_at(0)) == 2

    def test_duplicate_operation_rejected(self, base_arch):
        dfg, (a, _, _) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        with pytest.raises(SchedulingError):
            schedule.add(entry(dfg.operation(a), 1, 0, 0))

    def test_out_of_array_placement_rejected(self, base_arch):
        dfg, (a, _, _) = tiny_dfg()
        schedule = Schedule(base_arch)
        with pytest.raises(SchedulingError):
            schedule.add(entry(dfg.operation(a), 0, 9, 0))

    def test_missing_operation_lookup(self, base_arch):
        with pytest.raises(SchedulingError):
            Schedule(base_arch).get("ghost")

    def test_empty_schedule_statistics(self, base_arch):
        schedule = Schedule(base_arch)
        assert schedule.length == 0
        assert schedule.max_multiplications_per_cycle() == 0
        assert schedule.pe_utilisation() == 0.0


class TestScheduleStatistics:
    def test_multiplications_in_flight_counts_pipeline_stages(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(c), 2, 0, 0, latency=2))
        assert [m.name for m in schedule.multiplications_at(2)] == [c]
        assert len(schedule.multiplications_in_flight_at(2)) == 1
        assert len(schedule.multiplications_in_flight_at(3)) == 1
        assert len(schedule.multiplications_in_flight_at(4)) == 0
        assert schedule.max_multiplications_per_cycle() == 1
        assert schedule.max_multiplication_issues_per_cycle() == 1

    def test_busy_pes_tracking(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(c), 0, 3, 4, latency=2))
        assert (3, 4) in schedule.busy_pes_at(1)
        assert schedule.busy_pes_at(2) == []


class TestScheduleValidation:
    def build_valid(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch, "tiny")
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 1, 0, 0))
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        schedule.add(entry(store, 2, 0, 0))
        return dfg, schedule

    def test_valid_schedule_passes(self, base_arch):
        dfg, schedule = self.build_valid(base_arch)
        schedule.validate(dfg)

    def test_missing_operation_detected(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        with pytest.raises(SchedulingError, match="not scheduled"):
            schedule.validate(dfg)

    def test_dependence_violation_detected(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 0, 2, 0))  # consumes a/b too early
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        schedule.add(entry(store, 1, 2, 0))
        with pytest.raises(SchedulingError, match="dependence violated"):
            schedule.validate(dfg)

    def test_pe_double_booking_detected(self, base_arch):
        builder = DFGBuilder()
        first = builder.load("x", 0)
        second = builder.load("y", 0)
        dfg = builder.build()
        schedule = Schedule(base_arch)
        schedule.add(entry(dfg.operation(first), 0, 0, 0))
        schedule.add(entry(dfg.operation(second), 0, 0, 0))
        with pytest.raises(SchedulingError, match="double-booked"):
            schedule.validate(dfg)

    def test_bus_oversubscription_detected(self, base_arch):
        builder = DFGBuilder()
        loads = [builder.load("x", index) for index in range(3)]
        dfg = builder.build()
        schedule = Schedule(base_arch)
        for col, name in enumerate(loads):
            schedule.add(entry(dfg.operation(name), 0, 0, col))
        with pytest.raises(SchedulingError, match="read buses"):
            schedule.validate(dfg)

    def test_shared_unit_required_on_sharing_architecture(self):
        arch = rs_architecture(1)
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 1, 0, 0))  # no shared unit bound
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        schedule.add(entry(store, 2, 0, 0))
        with pytest.raises(SchedulingError, match="no shared multiplier"):
            schedule.validate(dfg)

    def test_shared_unit_reachability_checked(self):
        arch = rs_architecture(1)
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        # Multiplication on row 0 bound to the row-5 multiplier: unreachable.
        schedule.add(entry(dfg.operation(c), 1, 0, 0, shared=("row", 5, 0)))
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        schedule.add(entry(store, 2, 0, 0))
        with pytest.raises(SchedulingError, match="multiplier of row 5"):
            schedule.validate(dfg)

    def test_entry_the_dfg_lacks_detected(self, mapper, hydro_kernel):
        schedule = mapper.base_schedule(hydro_kernel)
        dfg = mapper.build_dfg(hydro_kernel)
        extended = Schedule(schedule.architecture, schedule.kernel_name)
        for scheduled in schedule.entries_by_name().values():
            extended.add(scheduled)
        ghost = Operation("ghost", OpType.ADD)
        extended.add(entry(ghost, cycle=schedule.length + 5, row=0, col=0))
        assert extended.length == schedule.length + 6
        with pytest.raises(SchedulingError, match="'ghost' is scheduled but kernel"):
            extended.validate(dfg)

    @pytest.mark.parametrize(
        "change", [{"optype": OpType.LOAD}, {"array": "w"}, {"index": 1}, {"iteration": 1}]
    )
    def test_entry_whose_operation_differs_detected(self, base_arch, change):
        dfg, schedule = self.build_valid(base_arch)
        store = [op for op in dfg.operations() if op.optype is OpType.STORE][0]
        altered = Schedule(base_arch, "tiny")
        for scheduled in schedule.entries_by_name().values():
            if scheduled.name == store.name:
                scheduled = replace(scheduled, operation=replace(store, **change))
            altered.add(scheduled)
        with pytest.raises(SchedulingError, match=f"{store.name!r} is scheduled as"):
            altered.validate(dfg)

    def test_shared_unit_issue_conflict_detected(self):
        arch = rs_architecture(1)
        builder = DFGBuilder()
        a = builder.load("x", 0)
        b = builder.load("y", 0)
        c = builder.load("w", 1)
        d = builder.load("v", 1)
        m1 = builder.mul(a, b)
        m2 = builder.mul(c, d)
        dfg = builder.build()
        schedule = Schedule(arch)
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        schedule.add(entry(dfg.operation(b), 0, 1, 0))
        schedule.add(entry(dfg.operation(c), 0, 2, 0))
        schedule.add(entry(dfg.operation(d), 0, 3, 0))
        schedule.add(entry(dfg.operation(m1), 1, 0, 0, shared=("row", 0, 0)))
        schedule.add(entry(dfg.operation(m2), 1, 0, 1, shared=("row", 0, 0)))
        with pytest.raises(SchedulingError, match="two issues"):
            schedule.validate(dfg)


#: Designs whose schedules the pickle tests cover: the base design, a pure
#: RS design, and RSP designs with 2 and 3 multiplier stages.
PICKLED_DESIGNS = (
    base_architecture(),
    rs_architecture(2),
    rsp_architecture(1),
    rsp_architecture(1, stages=3),
)


def legacy_pickle(schedule: Schedule) -> bytes:
    """``schedule`` in the format written before schedules pickled by column.

    That format was the default reduction of the instance: ``Schedule``
    created through ``copyreg.__newobj__`` and its ``__dict__`` (which held
    no cached length) as the state.
    """

    class LegacyPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is not Schedule:
                return NotImplemented
            state = {name: value for name, value in vars(obj).items() if name != "_length"}
            return copyreg.__newobj__, (Schedule,), state

    buffer = io.BytesIO()
    LegacyPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(schedule)
    return buffer.getvalue()


def full_entries(schedule: Schedule):
    """Every entry with all seven fields, in insertion order."""
    return [
        (e.operation, e.cycle, e.row, e.col, e.latency, e.occupancy, e.shared_unit)
        for e in schedule.entries_by_name().values()
    ]


def assert_same_schedule(got: Schedule, expected: Schedule) -> None:
    assert full_entries(got) == full_entries(expected)
    assert [
        [e.name for e in got.operations_at(cycle)] for cycle in range(got.length)
    ] == [[e.name for e in expected.operations_at(cycle)] for cycle in range(expected.length)]
    assert got.length == expected.length
    assert got.length == max(e.finish_cycle for e in got.entries_by_name().values())
    assert got.kernel_name == expected.kernel_name
    assert got.architecture == expected.architecture


@pytest.fixture(scope="module")
def pickled_schedules(mapper):
    return [
        mapper.map_kernel(kernel, design).schedule
        for design in PICKLED_DESIGNS
        for kernel in paper_suite()
    ]


class TestSchedulePickle:
    def test_round_trip_keeps_every_entry_and_order(self, pickled_schedules):
        for schedule in pickled_schedules:
            restored = pickle.loads(pickle.dumps(schedule, protocol=pickle.HIGHEST_PROTOCOL))
            assert_same_schedule(restored, schedule)

    def test_round_trip_of_an_empty_schedule(self, base_arch):
        restored = pickle.loads(pickle.dumps(Schedule(base_arch, "empty")))
        assert len(restored) == 0
        assert restored.length == 0
        assert restored.kernel_name == "empty"

    def test_restored_schedule_accepts_more_entries(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch, "tiny")
        schedule.add(entry(dfg.operation(a), 0, 0, 0))
        restored = pickle.loads(pickle.dumps(schedule))
        restored.add(entry(dfg.operation(c), 1, 0, 0, latency=2))
        assert restored.length == 3
        with pytest.raises(SchedulingError, match="scheduled twice"):
            restored.add(entry(dfg.operation(a), 2, 0, 0))

    def test_legacy_pickles_still_load(self, pickled_schedules):
        for schedule in pickled_schedules:
            legacy = legacy_pickle(schedule)
            assert b"_by_name" in legacy and b"_restore_schedule" not in legacy
            restored = pickle.loads(legacy)
            assert_same_schedule(restored, schedule)
            # A legacy schedule re-pickles in the columnar format.
            assert_same_schedule(pickle.loads(pickle.dumps(restored)), schedule)

    def test_columnar_pickle_is_smaller(self, pickled_schedules):
        for schedule in pickled_schedules:
            assert len(pickle.dumps(schedule, protocol=pickle.HIGHEST_PROTOCOL)) < len(
                legacy_pickle(schedule)
            )
