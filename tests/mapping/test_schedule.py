"""Tests for the schedule data structure and its validation."""

from __future__ import annotations

import copyreg
import io
import pickle
from collections import defaultdict
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import base_architecture, rs_architecture, rsp_architecture
from repro.errors import SchedulingError
from repro.ir import DFGBuilder, Operation, OpType
from repro.kernels import get_kernel, paper_suite
from repro.mapping.loop_pipelining import LoopPipeliningScheduler
from repro.mapping.rearrange import rearrange_schedule, rebind_schedule, retiming_plan
from repro.mapping.schedule import Schedule, ScheduledOperation, _restore_schedule

from dfg_strategies import random_kernel_dfg


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


class EntryLayoutSchedule:
    """The layout schedules had before they stored columns: the entry
    objects by name and by issue cycle, gathered into columns only to
    pickle (the pickle is the one the column layout writes)."""

    def __init__(self, architecture, kernel_name):
        self.architecture = architecture
        self.kernel_name = kernel_name
        self.by_name = {}
        self.by_cycle = defaultdict(list)
        self.length = 0

    def add(self, scheduled):
        self.by_name[scheduled.name] = scheduled
        self.by_cycle[scheduled.cycle].append(scheduled)
        self.length = max(self.length, scheduled.finish_cycle)

    def operations_at(self, cycle):
        return sorted(self.by_cycle.get(cycle, []), key=lambda e: (e.col, e.row))

    def __reduce__(self):
        entries = list(self.by_name.values())
        operations = [e.operation for e in entries]
        return _restore_schedule, (
            self.architecture,
            self.kernel_name,
            [[getattr(op, field.name) for op in operations] for field in fields(Operation)],
            [
                [getattr(e, field.name) for e in entries]
                for field in fields(ScheduledOperation)
                if field.name != "operation"
            ],
        )


class _Reduced:
    """Pickles as a schedule with the given columns, as they are."""

    def __init__(self, *arguments):
        self.arguments = arguments

    def __reduce__(self):
        return _restore_schedule, self.arguments


def legacy_pickle(schedule: Schedule) -> bytes:
    """``schedule`` in the format written before schedules pickled by column.

    That format was the default reduction of the instance: ``Schedule``
    created through ``copyreg.__newobj__`` and its ``__dict__`` as the
    state.  The dict held the architecture, the kernel name, the entries by
    name in insertion order (``_by_name``) and by issue cycle
    (``_by_cycle``, a ``defaultdict(list)``), and no cached length.
    """

    def legacy_state(obj: Schedule):
        layout = EntryLayoutSchedule(obj.architecture, obj.kernel_name)
        for scheduled in obj.entries_by_name().values():
            layout.add(scheduled)
        return {
            "architecture": obj.architecture,
            "kernel_name": obj.kernel_name,
            "_by_name": layout.by_name,
            "_by_cycle": layout.by_cycle,
        }

    class LegacyPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is not Schedule:
                return NotImplemented
            return copyreg.__newobj__, (Schedule,), legacy_state(obj)

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


class TestColumnBuild:
    """:meth:`Schedule.append` and :meth:`Schedule.from_columns` against the
    entry path they replace: building a :class:`ScheduledOperation` and
    :meth:`Schedule.add`-ing it."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_kernel_dfg(), st.sampled_from(PICKLED_DESIGNS))
    def test_column_build_equals_entry_build(self, dfg, target):
        # Every placement appended or handed over by whole columns (the base
        # scheduler and the rearrangement both build by columns), as passed,
        # by the schedule it went to.
        placements = defaultdict(list)
        built_by_columns = set()
        append = Schedule.append
        from_columns = Schedule.from_columns

        def recorded(schedule, *args, **kwargs):
            placements[id(schedule)].append((args, kwargs))
            return append(schedule, *args, **kwargs)

        def recorded_columns(cls, architecture, kernel_name, *columns):
            schedule = from_columns(architecture, kernel_name, *columns)
            placements[id(schedule)].extend((placement, {}) for placement in zip(*columns))
            built_by_columns.add(id(schedule))
            return schedule

        with mock.patch.object(Schedule, "append", recorded), mock.patch.object(
            Schedule, "from_columns", classmethod(recorded_columns)
        ):
            base = LoopPipeliningScheduler(base_architecture()).schedule(dfg)
            rearranged = rearrange_schedule(base, dfg, target)
        assert id(rearranged) in built_by_columns and id(base) in built_by_columns
        for by_columns in (base, rearranged):
            reference = EntryLayoutSchedule(by_columns.architecture, by_columns.kernel_name)
            by_entries = Schedule(by_columns.architecture, by_columns.kernel_name)
            for args, kwargs in placements[id(by_columns)]:
                scheduled = ScheduledOperation(*args, **kwargs)
                reference.add(scheduled)
                by_entries.add(scheduled)
            expected = pickle.dumps(reference, protocol=pickle.HIGHEST_PROTOCOL)
            for schedule in (by_columns, by_entries):
                assert pickle.dumps(schedule, protocol=pickle.HIGHEST_PROTOCOL) == expected
                assert list(schedule.entries_by_name().items()) == list(
                    reference.by_name.items()
                )
                assert all(
                    schedule.operations_at(cycle) == reference.operations_at(cycle)
                    for cycle in range(reference.length + 1)
                )
                assert schedule.length == reference.length

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"cycle": -1}, "scheduled at negative cycle"),
            ({"latency": 0}, "must have latency >= 1"),
            ({"occupancy": 0}, "must occupy its PE >= 1 cycle"),
            ({"row": -1}, "has no PE placement"),
            ({"col": 8}, "placed outside the 8x8 array"),
            ({"duplicate": True}, "scheduled twice"),
        ],
        ids=["negative-cycle", "latency-0", "occupancy-0", "no-pe", "outside", "duplicate"],
    )
    def test_rejected_fields_raise_the_same_error_on_both_paths(
        self, base_arch, change, message
    ):
        dfg, (a, b, _) = tiny_dfg()
        placement = {
            "operation": dfg.operation(b),
            "cycle": 1,
            "row": 1,
            "col": 0,
            "latency": 1,
            "occupancy": None,
            "shared_unit": None,
        }
        if change == {"duplicate": True}:
            placement["operation"] = dfg.operation(a)
        else:
            placement.update(change)
        errors = []
        for build in (
            lambda schedule: schedule.add(ScheduledOperation(**placement)),
            lambda schedule: schedule.append(**placement),
        ):
            schedule = Schedule(base_arch, "tiny")
            schedule.append(dfg.operation(a), 0, 0, 0)
            with pytest.raises(SchedulingError, match=message) as raised:
                build(schedule)
            errors.append(str(raised.value))
            assert len(schedule) == 1 and schedule.length == 1
            assert list(schedule.entries_by_name()) == [a]
        # The same two entries as whole columns.
        first = (dfg.operation(a), 0, 0, 0, 1, None, None)
        columns = [list(pair) for pair in zip(first, placement.values())]
        with pytest.raises(SchedulingError, match=message) as raised:
            Schedule.from_columns(base_arch, "tiny", *columns)
        errors.append(str(raised.value))
        assert errors[0] == errors[1] == errors[2]

    def test_columns_of_unequal_length_are_rejected(self, base_arch):
        dfg, (a, b, _) = tiny_dfg()
        operations = [dfg.operation(a), dfg.operation(b)]
        message = (
            r"the columns of schedule 'tiny' differ in length: operations 2, cycles 1, "
            r"rows 2, cols 2, latencies 2, occupancies 2, shared_units 2"
        )
        with pytest.raises(SchedulingError, match=message):
            Schedule.from_columns(
                base_arch, "tiny", operations, [0], [0, 1], [0, 0], [1, 1], [1, 1], [None, None]
            )

    def test_a_pickle_with_a_short_column_does_not_load(self, mapper):
        schedule = mapper.base_schedule(get_kernel("MVM"))
        assert (len(schedule), schedule.length) == (256, 17)
        architecture, kernel_name, operation_columns, entry_columns = schedule.__reduce__()[1]
        for cut_operations, cut_entries in (([], [0]), ([5], [])):
            cut = [list(column) for column in operation_columns]
            for index in cut_operations:
                cut[index] = cut[index][:-5]
            entries = [list(column) for column in entry_columns]
            for index in cut_entries:
                entries[index] = entries[index][:-5]
            data = pickle.dumps(_Reduced(architecture, kernel_name, cut, entries))
            with pytest.raises(SchedulingError, match="differ in length: .* 251"):
                pickle.loads(data)

    def test_rearranged_schedules_share_no_column(self, mapper):
        kernel = get_kernel("MVM")
        base = mapper.base_schedule(kernel)
        dfg = mapper.build_dfg(kernel)
        plan = retiming_plan(base, dfg)
        first, second = (
            rearrange_schedule(base, dfg, target, plan=plan)
            for target in (rs_architecture(2), rs_architecture(2))
        )
        assert full_entries(first) == full_entries(second)
        owners = [base, first, second, rebind_schedule(first, rs_architecture(1))]
        lists = [id(column) for schedule in owners for column in schedule.columns()]
        assert len(set(lists)) == len(lists)
        before = (len(second), second.length, [list(column) for column in second.columns()])
        first.append(Operation("extra", OpType.ADD), first.length + 3, 0, 0)
        assert (len(first), first.length) == (len(second) + 1, second.length + 4)
        assert (len(second), second.length, [list(column) for column in second.columns()]) == before

    def test_entries_are_built_on_read_and_kept_until_the_next_append(self, base_arch):
        dfg, (a, b, c) = tiny_dfg()
        schedule = Schedule(base_arch, "tiny")
        schedule.append(dfg.operation(a), 0, 0, 0)
        first = schedule.get(a)
        assert schedule.get(a) is first
        assert schedule.entries_by_name()[a] is first
        schedule.append(dfg.operation(c), 1, 0, 0, latency=2)
        assert schedule.get(a) == first
        assert [entry.name for entry in schedule.operations()] == [a, c]
        assert [entry.name for entry in schedule.operations_at(1)] == [c]
        assert schedule.length == 3
