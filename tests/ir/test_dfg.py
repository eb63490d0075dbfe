"""Tests for the dataflow-graph IR."""

from __future__ import annotations

import pytest

from repro.errors import DFGError, DFGValidationError, UnknownOperationError
from repro.ir import DFG, Operation, OpType


def simple_mac_dfg() -> DFG:
    """load a, load b, c = a*b, d = c+c2(const), store d."""
    dfg = DFG("mac")
    dfg.add_operation(Operation("a", OpType.LOAD, array="x", index=0))
    dfg.add_operation(Operation("b", OpType.LOAD, array="y", index=0))
    dfg.add_operation(Operation("c", OpType.MUL))
    dfg.add_operation(Operation("k", OpType.CONST, immediate=3))
    dfg.add_operation(Operation("d", OpType.ADD))
    dfg.add_operation(Operation("s", OpType.STORE, array="z", index=0))
    dfg.add_dependence("a", "c", port=0)
    dfg.add_dependence("b", "c", port=1)
    dfg.add_dependence("c", "d", port=0)
    dfg.add_dependence("k", "d", port=1)
    dfg.add_dependence("d", "s", port=0)
    return dfg


class TestOpType:
    def test_memory_classification(self):
        assert OpType.LOAD.is_memory
        assert OpType.STORE.is_memory
        assert not OpType.ADD.is_memory

    def test_multiplication_classification(self):
        assert OpType.MUL.is_multiplication
        assert not OpType.ADD.is_multiplication

    def test_alu_classification(self):
        for optype in (OpType.ADD, OpType.SUB, OpType.ABS, OpType.MIN, OpType.MAX):
            assert optype.is_alu
        assert not OpType.MUL.is_alu
        assert not OpType.SHIFT.is_alu

    def test_shift_classification(self):
        assert OpType.SHIFT.is_shift

    def test_store_produces_no_value(self):
        assert not OpType.STORE.produces_value
        assert OpType.LOAD.produces_value


class TestOperation:
    def test_rejects_empty_name(self):
        with pytest.raises(DFGError):
            Operation("", OpType.ADD)

    def test_rejects_negative_iteration(self):
        with pytest.raises(DFGError):
            Operation("a", OpType.ADD, iteration=-1)

    def test_rejects_non_optype(self):
        with pytest.raises(DFGError):
            Operation("a", "add")  # type: ignore[arg-type]

    def test_labels(self):
        assert Operation("a", OpType.LOAD).label() == "Ld"
        assert Operation("a", OpType.STORE).label() == "St"
        assert Operation("a", OpType.MUL).label() == "*"
        assert Operation("a", OpType.ADD).label() == "+"
        assert Operation("a", OpType.SUB).label() == "-"


class TestDFGConstruction:
    def test_add_and_query(self):
        dfg = simple_mac_dfg()
        assert len(dfg) == 6
        assert dfg.number_of_edges() == 5
        assert "c" in dfg
        assert dfg.operation("c").optype is OpType.MUL

    def test_duplicate_name_rejected(self):
        dfg = DFG()
        dfg.add_operation(Operation("a", OpType.LOAD, array="x"))
        with pytest.raises(DFGError) as raised:
            dfg.add_operation(Operation("a", OpType.ADD))
        assert str(raised.value) == "duplicate operation name: 'a'"
        assert dfg.operation("a").optype is OpType.LOAD

    def test_edge_to_unknown_operation_rejected(self):
        dfg = DFG()
        dfg.add_operation(Operation("a", OpType.LOAD, array="x"))
        with pytest.raises(UnknownOperationError):
            dfg.add_dependence("a", "missing")

    def test_duplicate_dependence_rejected(self):
        dfg = DFG()
        dfg.add_operation(Operation("x", OpType.LOAD, array="x"))
        dfg.add_operation(Operation("m", OpType.MUL))
        dfg.add_dependence("x", "m", port=0)
        with pytest.raises(DFGError, match="'x' -> 'm'"):
            dfg.add_dependence("x", "m", port=1)
        assert dfg.port("x", "m") == 0
        assert dfg.number_of_edges() == 1

    def test_port_lookup(self):
        dfg = simple_mac_dfg()
        assert dfg.port("k", "d") == 1
        assert dfg.port("d", "s") == 0
        with pytest.raises(DFGError):
            dfg.port("a", "d")

    def test_self_edge_rejected(self):
        dfg = DFG()
        dfg.add_operation(Operation("a", OpType.ADD))
        with pytest.raises(DFGError):
            dfg.add_dependence("a", "a")

    def test_unknown_operation_lookup(self):
        dfg = DFG()
        with pytest.raises(UnknownOperationError):
            dfg.operation("ghost")

    def test_fresh_name_unique(self):
        dfg = DFG()
        names = {dfg.fresh_name("op") for _ in range(50)}
        assert len(names) == 50

    @pytest.mark.parametrize(
        "producer, consumer, error, message",
        [
            ("ghost", "a", UnknownOperationError, "unknown operation: 'ghost'"),
            ("a", "ghost", UnknownOperationError, "unknown operation: 'ghost'"),
            ("ghost", "phantom", UnknownOperationError, "unknown operation: 'ghost'"),
            ("a", "a", DFGError, "self dependence on 'a' is not allowed"),
            ("a", "b", DFGError, "duplicate dependence 'a' -> 'b'"),
        ],
    )
    def test_rejected_dependence_messages(self, producer, consumer, error, message):
        dfg = DFG()
        dfg.add_operation(Operation("a", OpType.LOAD, array="x"))
        dfg.add_operation(Operation("b", OpType.ADD))
        dfg.add_dependence("a", "b", port=0)
        with pytest.raises(error) as raised:
            dfg.add_dependence(producer, consumer, port=1)
        assert type(raised.value) is error
        assert str(raised.value) == message
        assert dfg.to_dict()["edges"] == [{"producer": "a", "consumer": "b", "port": 0}]


class TestDFGQueries:
    def test_predecessors_and_successors(self):
        dfg = simple_mac_dfg()
        assert set(dfg.predecessors("c")) == {"a", "b"}
        assert dfg.successors("c") == ["d"]
        assert dfg.successors("s") == []

    def test_topological_order_respects_edges(self):
        dfg = simple_mac_dfg()
        order = dfg.topological_order()
        assert order.index("a") < order.index("c") < order.index("d") < order.index("s")

    def test_cycle_detection(self):
        dfg = DFG()
        dfg.add_operation(Operation("a", OpType.ADD))
        dfg.add_operation(Operation("b", OpType.ADD))
        dfg.add_dependence("a", "b")
        dfg.add_dependence("b", "a")
        assert not dfg.is_acyclic()
        with pytest.raises(DFGValidationError):
            dfg.topological_order()

    def test_op_counts_and_operation_set(self):
        dfg = simple_mac_dfg()
        counts = dfg.op_counts()
        assert counts[OpType.LOAD] == 2
        assert counts[OpType.MUL] == 1
        # Operation set excludes memory operations and constants.
        assert dfg.operation_set() == [OpType.ADD, OpType.MUL]

    def test_multiplication_and_memory_counts(self):
        dfg = simple_mac_dfg()
        assert dfg.multiplication_count() == 1
        assert dfg.memory_operation_count() == 3

    def test_iterations_listing(self):
        dfg = DFG()
        dfg.add_operation(Operation("a", OpType.ADD, iteration=2))
        dfg.add_operation(Operation("b", OpType.ADD, iteration=0))
        assert dfg.iterations() == [0, 2]
        assert [op.name for op in dfg.operations_in_iteration(2)] == ["a"]


class TestDFGAnalysis:
    def test_depth_default_latency(self):
        dfg = simple_mac_dfg()
        # a/b -> c -> d -> s is four operations deep.
        assert dfg.depth() == 4

    def test_depth_custom_latency(self):
        dfg = simple_mac_dfg()
        depth = dfg.depth(lambda op: 2 if op.optype is OpType.MUL else 1)
        assert depth == 5

    def test_critical_path_endpoints(self):
        dfg = simple_mac_dfg()
        path = dfg.critical_path()
        assert path[-1] == "s"
        assert path[0] in ("a", "b")
        assert len(path) == 4

    def test_empty_dfg_depth_zero(self):
        assert DFG().depth() == 0
        assert DFG().critical_path() == []


class TestDFGSerialisation:
    def test_round_trip(self):
        dfg = simple_mac_dfg()
        rebuilt = DFG.from_dict(dfg.to_dict())
        assert len(rebuilt) == len(dfg)
        assert rebuilt.number_of_edges() == dfg.number_of_edges()
        assert rebuilt.operation("k").immediate == 3
        assert rebuilt.port("a", "c") == 0
        assert rebuilt.to_dict() == dfg.to_dict()

    def test_copy_is_independent(self):
        dfg = simple_mac_dfg()
        clone = dfg.copy()
        clone.add_operation(Operation("extra", OpType.ADD))
        assert "extra" not in dfg

    def test_merge_renames_on_collision(self):
        dfg = simple_mac_dfg()
        other = simple_mac_dfg()
        renaming = dfg.merge(other)
        assert len(dfg) == 12
        assert all(new_name in dfg for new_name in renaming.values())
