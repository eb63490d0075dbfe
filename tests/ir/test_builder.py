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


def test_binary_rejects_a_non_optype_before_minting_a_name():
    builder = DFGBuilder()
    a = builder.load("x", 0)
    b = builder.load("y", 0)
    with pytest.raises(DFGError, match=r"^optype must be an OpType, got 'add'$"):
        builder.binary("add", a, b)
    assert len(builder.dfg) == 2
    # The failed call took no name: the next operation gets the name it
    # would have had without it.
    expected = DFGBuilder()
    expected.load("x", 0)
    expected.load("y", 0)
    assert builder.add(a, b) == expected.add(a, b)


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


# ----------------------------------------------------------------------
# Pinned naming and edge order on every builder path
# ----------------------------------------------------------------------
def build_every_path():
    """A two-iteration graph through every builder method.

    It takes the paths no suite kernel takes: a duplicate-operand ``mov``
    (minted after its consumer), a text ``index`` and a float
    ``immediate``.
    """
    builder = DFGBuilder("pinned")
    state = {}
    for iteration in range(2):
        builder.set_iteration(iteration)
        a = builder.load("a", iteration)
        square = builder.mul(a, a)
        factor = builder.const(3, comment="factor")
        half = builder.const(-0.5)
        scaled = builder.shift(square, 2)
        builder.store("t", "i+1", scaled)
        reread = builder.load("t", "i+1")
        mixed = builder.binary(OpType.XOR, reread, factor)
        low = builder.minimum(mixed, half)
        high = builder.maximum(mixed, a)
        spread = builder.abs(builder.sub(high, low))
        moved = builder.mov(spread, comment="copy")
        total = builder.sum_tree([a, square, moved, low, high])
        state["acc"] = (
            total
            if iteration == 0
            else builder.accumulate_chain([state["acc"], total, builder.add(factor, factor)])
        )
    builder.store("out", None, state["acc"])
    return builder.build()


PINNED_FIELDS = ("name", "optype", "iteration", "array", "index", "immediate", "comment")
#: :func:`build_every_path`'s graph as recorded: a faster builder must mint
#: the same names with the same fields, and insert every edge in the same
#: order, because ``to_dict`` (and so every artifact key) lists edges in
#: successor order and the base scheduler reads predecessor order.
PINNED_OPERATIONS = [
    ('load_i0_0', 'load', 0, 'a', 0, None, ''),
    ('mult_i0_1', 'mult', 0, None, None, None, ''),
    ('mov_i0_2', 'mov', 0, None, None, None, 'duplicate operand copy'),
    ('const_i0_3', 'const', 0, None, None, 3, 'factor'),
    ('const_i0_4', 'const', 0, None, None, -0.5, ''),
    ('shift_i0_5', 'shift', 0, None, None, 2, ''),
    ('store_i0_6', 'store', 0, 't', 'i+1', None, ''),
    ('load_i0_7', 'load', 0, 't', 'i+1', None, ''),
    ('xor_i0_8', 'xor', 0, None, None, None, ''),
    ('min_i0_9', 'min', 0, None, None, None, ''),
    ('max_i0_10', 'max', 0, None, None, None, ''),
    ('sub_i0_11', 'sub', 0, None, None, None, ''),
    ('abs_i0_12', 'abs', 0, None, None, None, ''),
    ('mov_i0_13', 'mov', 0, None, None, None, 'copy'),
    ('add_i0_14', 'add', 0, None, None, None, ''),
    ('add_i0_15', 'add', 0, None, None, None, ''),
    ('add_i0_16', 'add', 0, None, None, None, ''),
    ('add_i0_17', 'add', 0, None, None, None, ''),
    ('load_i1_18', 'load', 1, 'a', 1, None, ''),
    ('mult_i1_19', 'mult', 1, None, None, None, ''),
    ('mov_i1_20', 'mov', 1, None, None, None, 'duplicate operand copy'),
    ('const_i1_21', 'const', 1, None, None, 3, 'factor'),
    ('const_i1_22', 'const', 1, None, None, -0.5, ''),
    ('shift_i1_23', 'shift', 1, None, None, 2, ''),
    ('store_i1_24', 'store', 1, 't', 'i+1', None, ''),
    ('load_i1_25', 'load', 1, 't', 'i+1', None, ''),
    ('xor_i1_26', 'xor', 1, None, None, None, ''),
    ('min_i1_27', 'min', 1, None, None, None, ''),
    ('max_i1_28', 'max', 1, None, None, None, ''),
    ('sub_i1_29', 'sub', 1, None, None, None, ''),
    ('abs_i1_30', 'abs', 1, None, None, None, ''),
    ('mov_i1_31', 'mov', 1, None, None, None, 'copy'),
    ('add_i1_32', 'add', 1, None, None, None, ''),
    ('add_i1_33', 'add', 1, None, None, None, ''),
    ('add_i1_34', 'add', 1, None, None, None, ''),
    ('add_i1_35', 'add', 1, None, None, None, ''),
    ('add_i1_36', 'add', 1, None, None, None, ''),
    ('mov_i1_37', 'mov', 1, None, None, None, 'duplicate operand copy'),
    ('add_i1_38', 'add', 1, None, None, None, ''),
    ('add_i1_39', 'add', 1, None, None, None, ''),
    ('store_i1_40', 'store', 1, 'out', None, None, ''),
]
#: Producer -> [(consumer, port), ...] in insertion order.
PINNED_SUCCESSORS = {
    'load_i0_0': [('mult_i0_1', 0), ('mov_i0_2', 0), ('max_i0_10', 1), ('add_i0_14', 0)],
    'mult_i0_1': [('shift_i0_5', 0), ('add_i0_14', 1)],
    'mov_i0_2': [('mult_i0_1', 1)],
    'const_i0_3': [('xor_i0_8', 1)],
    'const_i0_4': [('min_i0_9', 1)],
    'shift_i0_5': [('store_i0_6', 0)],
    'store_i0_6': [('load_i0_7', None)],
    'load_i0_7': [('xor_i0_8', 0)],
    'xor_i0_8': [('min_i0_9', 0), ('max_i0_10', 0)],
    'min_i0_9': [('sub_i0_11', 1), ('add_i0_15', 1)],
    'max_i0_10': [('sub_i0_11', 0), ('add_i0_17', 1)],
    'sub_i0_11': [('abs_i0_12', 0)],
    'abs_i0_12': [('mov_i0_13', 0)],
    'mov_i0_13': [('add_i0_15', 0)],
    'add_i0_14': [('add_i0_16', 0)],
    'add_i0_15': [('add_i0_16', 1)],
    'add_i0_16': [('add_i0_17', 0)],
    'add_i0_17': [('add_i1_38', 0)],
    'load_i1_18': [('mult_i1_19', 0), ('mov_i1_20', 0), ('max_i1_28', 1), ('add_i1_32', 0)],
    'mult_i1_19': [('shift_i1_23', 0), ('add_i1_32', 1)],
    'mov_i1_20': [('mult_i1_19', 1)],
    'const_i1_21': [('xor_i1_26', 1), ('add_i1_36', 0), ('mov_i1_37', 0)],
    'const_i1_22': [('min_i1_27', 1)],
    'shift_i1_23': [('store_i1_24', 0)],
    'store_i1_24': [('load_i1_25', None)],
    'load_i1_25': [('xor_i1_26', 0)],
    'xor_i1_26': [('min_i1_27', 0), ('max_i1_28', 0)],
    'min_i1_27': [('sub_i1_29', 1), ('add_i1_33', 1)],
    'max_i1_28': [('sub_i1_29', 0), ('add_i1_35', 1)],
    'sub_i1_29': [('abs_i1_30', 0)],
    'abs_i1_30': [('mov_i1_31', 0)],
    'mov_i1_31': [('add_i1_33', 0)],
    'add_i1_32': [('add_i1_34', 0)],
    'add_i1_33': [('add_i1_34', 1)],
    'add_i1_34': [('add_i1_35', 0)],
    'add_i1_35': [('add_i1_38', 1)],
    'add_i1_36': [('add_i1_39', 1)],
    'mov_i1_37': [('add_i1_36', 1)],
    'add_i1_38': [('add_i1_39', 0)],
    'add_i1_39': [('store_i1_40', 0)],
}
PINNED_PREDECESSORS = {
    'mult_i0_1': ['load_i0_0', 'mov_i0_2'],
    'mov_i0_2': ['load_i0_0'],
    'shift_i0_5': ['mult_i0_1'],
    'store_i0_6': ['shift_i0_5'],
    'load_i0_7': ['store_i0_6'],
    'xor_i0_8': ['load_i0_7', 'const_i0_3'],
    'min_i0_9': ['xor_i0_8', 'const_i0_4'],
    'max_i0_10': ['xor_i0_8', 'load_i0_0'],
    'sub_i0_11': ['max_i0_10', 'min_i0_9'],
    'abs_i0_12': ['sub_i0_11'],
    'mov_i0_13': ['abs_i0_12'],
    'add_i0_14': ['load_i0_0', 'mult_i0_1'],
    'add_i0_15': ['mov_i0_13', 'min_i0_9'],
    'add_i0_16': ['add_i0_14', 'add_i0_15'],
    'add_i0_17': ['add_i0_16', 'max_i0_10'],
    'mult_i1_19': ['load_i1_18', 'mov_i1_20'],
    'mov_i1_20': ['load_i1_18'],
    'shift_i1_23': ['mult_i1_19'],
    'store_i1_24': ['shift_i1_23'],
    'load_i1_25': ['store_i1_24'],
    'xor_i1_26': ['load_i1_25', 'const_i1_21'],
    'min_i1_27': ['xor_i1_26', 'const_i1_22'],
    'max_i1_28': ['xor_i1_26', 'load_i1_18'],
    'sub_i1_29': ['max_i1_28', 'min_i1_27'],
    'abs_i1_30': ['sub_i1_29'],
    'mov_i1_31': ['abs_i1_30'],
    'add_i1_32': ['load_i1_18', 'mult_i1_19'],
    'add_i1_33': ['mov_i1_31', 'min_i1_27'],
    'add_i1_34': ['add_i1_32', 'add_i1_33'],
    'add_i1_35': ['add_i1_34', 'max_i1_28'],
    'add_i1_36': ['const_i1_21', 'mov_i1_37'],
    'mov_i1_37': ['const_i1_21'],
    'add_i1_38': ['add_i0_17', 'add_i1_35'],
    'add_i1_39': ['add_i1_38', 'add_i1_36'],
    'store_i1_40': ['add_i1_39'],
}


def test_every_builder_path_mints_the_pinned_graph():
    dfg = build_every_path()
    assert dfg.to_dict() == {
        "name": "pinned",
        "operations": [dict(zip(PINNED_FIELDS, row)) for row in PINNED_OPERATIONS],
        "edges": [
            {"producer": producer, "consumer": consumer, "port": port}
            for producer, successors in PINNED_SUCCESSORS.items()
            for consumer, port in successors
        ],
    }
    assert {name: dfg.predecessors(name) for name in dfg} == {
        name: PINNED_PREDECESSORS.get(name, []) for name in dfg
    }
    validate_dfg(dfg)
