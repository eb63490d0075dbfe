"""Tests for the DFG builder."""

from __future__ import annotations

import pytest

from repro.errors import DFGError
from repro.ir import DFGBuilder, OpType, validate_dfg


def test_load_mul_store_chain():
    builder = DFGBuilder("k")
    a = builder.load("x", 0)
    b = builder.load("y", 1)
    c = builder.mul(a, b)
    builder.store("z", 0, c)
    dfg = builder.build()
    assert len(dfg) == 4
    assert dfg.operation(c).optype is OpType.MUL
    validate_dfg(dfg)


def test_operand_ports_follow_argument_order():
    builder = DFGBuilder()
    a = builder.load("x", 0)
    b = builder.load("y", 0)
    diff = builder.sub(a, b)
    dfg = builder.build()
    assert dfg.port(a, diff) == 0
    assert dfg.port(b, diff) == 1


def test_iteration_tracking():
    builder = DFGBuilder()
    first = builder.load("x", 0)
    builder.next_iteration()
    second = builder.load("x", 1)
    dfg = builder.build()
    assert dfg.operation(first).iteration == 0
    assert dfg.operation(second).iteration == 1


def test_set_iteration_rejects_negative():
    builder = DFGBuilder()
    with pytest.raises(DFGError):
        builder.set_iteration(-1)


def test_const_and_shift_have_immediates():
    builder = DFGBuilder()
    c = builder.const(7)
    a = builder.load("x", 0)
    s = builder.shift(a, -2)
    dfg = builder.build()
    assert dfg.operation(c).immediate == 7
    assert dfg.operation(s).immediate == -2


def test_duplicate_operand_routed_through_mov():
    builder = DFGBuilder()
    a = builder.load("x", 0)
    square = builder.mul(a, a)
    dfg = builder.build()
    preds = dfg.predecessors(square)
    assert len(preds) == 2
    mov_ops = dfg.operations_of_type(OpType.MOV)
    assert len(mov_ops) == 1
    validate_dfg(dfg)


def test_sum_tree_balanced_depth():
    builder = DFGBuilder()
    leaves = [builder.load("x", i) for i in range(8)]
    root = builder.sum_tree(leaves)
    dfg = builder.build()
    adds = dfg.operations_of_type(OpType.ADD)
    assert len(adds) == 7
    # Balanced reduction of 8 leaves: load + 3 add levels.
    assert dfg.depth() == 4
    assert dfg.successors(root) == []


def test_sum_tree_odd_count():
    builder = DFGBuilder()
    leaves = [builder.load("x", i) for i in range(5)]
    builder.sum_tree(leaves)
    dfg = builder.build()
    assert len(dfg.operations_of_type(OpType.ADD)) == 4


def test_sum_tree_single_value_passthrough():
    builder = DFGBuilder()
    leaf = builder.load("x", 0)
    assert builder.sum_tree([leaf]) == leaf


def test_sum_tree_empty_rejected():
    builder = DFGBuilder()
    with pytest.raises(DFGError):
        builder.sum_tree([])


def test_accumulate_chain_serial_depth():
    builder = DFGBuilder()
    leaves = [builder.load("x", i) for i in range(6)]
    builder.accumulate_chain(leaves)
    dfg = builder.build()
    assert len(dfg.operations_of_type(OpType.ADD)) == 5
    assert dfg.depth() == 6


def test_binary_generic_op():
    builder = DFGBuilder()
    a = builder.load("x", 0)
    b = builder.load("y", 0)
    result = builder.binary(OpType.XOR, a, b)
    assert builder.dfg.operation(result).optype is OpType.XOR


def test_min_max_abs_mov():
    builder = DFGBuilder()
    a = builder.load("x", 0)
    b = builder.load("y", 0)
    builder.minimum(a, b)
    builder.maximum(a, b)
    builder.abs(a)
    builder.mov(b)
    dfg = builder.build()
    counts = dfg.op_counts()
    assert counts[OpType.MIN] == 1
    assert counts[OpType.MAX] == 1
    assert counts[OpType.ABS] == 1
    assert counts[OpType.MOV] == 1
