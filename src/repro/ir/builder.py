"""Convenience builder for constructing kernel dataflow graphs.

Kernels in :mod:`repro.kernels` describe one loop iteration at a time; the
builder keeps track of the current iteration index, generates unique
operation names and wires dependence edges, so a kernel body reads almost
like the original C loop body, e.g. for the Livermore *Tri-diagonal
elimination* kernel ``x[i] = z[i] * (y[i] - x[i-1])``::

    y = builder.load("y", i)
    z = builder.load("z", i)
    diff = builder.sub(y, previous_x)
    x = builder.mul(z, diff)
    builder.store("x", i, x)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import DFGError
from repro.ir.dfg import DFG, Operation, OpType


class DFGBuilder:
    """Incrementally construct a :class:`~repro.ir.dfg.DFG`.

    Parameters
    ----------
    name:
        Name given to the underlying graph.
    """

    def __init__(self, name: str = "kernel") -> None:
        self._dfg = DFG(name)
        self._iteration = 0
        # Last store seen per (array, index), used to add read-after-write
        # memory-ordering edges so later loads of the same location cannot be
        # scheduled before the value was written (e.g. the column pass of a
        # separable transform reading the row pass's intermediate array).
        self._last_store: Dict[tuple, str] = {}

    # ------------------------------------------------------------------
    # Iteration management
    # ------------------------------------------------------------------
    @property
    def iteration(self) -> int:
        """The iteration index attached to newly created operations."""
        return self._iteration

    def set_iteration(self, iteration: int) -> None:
        """Set the iteration index for subsequently created operations."""
        if iteration < 0:
            raise DFGError(f"iteration must be non-negative, got {iteration}")
        self._iteration = iteration

    def next_iteration(self) -> int:
        """Advance to the next iteration and return the new index."""
        self._iteration += 1
        return self._iteration

    # ------------------------------------------------------------------
    # Operation creation
    # ------------------------------------------------------------------
    def _new_op(
        self,
        optype: OpType,
        operands: Sequence[str],
        *,
        array: Optional[str] = None,
        index: Optional[int] = None,
        immediate: Optional[int] = None,
        comment: str = "",
    ) -> str:
        dfg = self._dfg
        iteration = self._iteration
        # ``_value_`` reads the member's value without the slow ``value`` property.
        op_name = dfg.fresh_name(f"{optype._value_}_i{iteration}")
        dfg.add_operation(Operation(op_name, optype, iteration, array, index, immediate, comment))
        for port, operand in enumerate(operands):
            # The dependence graph stores one edge per (producer, consumer)
            # pair, so an operation consuming the same value on both ports
            # (e.g. squaring) routes the second use through a register move.
            if operand in operands[:port]:
                operand = self.mov(operand, comment="duplicate operand copy")
            dfg.add_dependence(operand, op_name, port)
        return op_name

    def load(self, array: str, index: Optional[int] = None, *, comment: str = "") -> str:
        """Create a load from ``array[index]`` and return its name.

        When an earlier :meth:`store` wrote the same location, a
        memory-ordering dependence is added from that store to this load.
        """
        name = self._new_op(OpType.LOAD, (), array=array, index=index, comment=comment)
        producer = self._last_store.get((array, index))
        if producer is not None:
            self._dfg.add_dependence(producer, name, port=None)
        return name

    def store(self, array: str, index: Optional[int], value: str, *, comment: str = "") -> str:
        """Create a store of ``value`` into ``array[index]``."""
        name = self._new_op(OpType.STORE, (value,), array=array, index=index, comment=comment)
        self._last_store[(array, index)] = name
        return name

    def const(self, value: int, *, comment: str = "") -> str:
        """Create a constant operand (held in the configuration cache)."""
        return self._new_op(OpType.CONST, (), immediate=value, comment=comment)

    def mul(self, lhs: str, rhs: str, *, comment: str = "") -> str:
        """Create a multiplication; executed on the critical array multiplier."""
        return self._new_op(OpType.MUL, (lhs, rhs), comment=comment)

    def add(self, lhs: str, rhs: str, *, comment: str = "") -> str:
        """Create an addition; executed on the primitive ALU."""
        return self._new_op(OpType.ADD, (lhs, rhs), comment=comment)

    def sub(self, lhs: str, rhs: str, *, comment: str = "") -> str:
        """Create a subtraction; executed on the primitive ALU."""
        return self._new_op(OpType.SUB, (lhs, rhs), comment=comment)

    def abs(self, value: str, *, comment: str = "") -> str:
        """Create an absolute-value operation (used by the SAD kernel)."""
        return self._new_op(OpType.ABS, (value,), comment=comment)

    def shift(self, value: str, amount: int, *, comment: str = "") -> str:
        """Create an arithmetic shift by a constant ``amount`` (positive = left)."""
        return self._new_op(OpType.SHIFT, (value,), immediate=amount, comment=comment)

    def mov(self, value: str, *, comment: str = "") -> str:
        """Create a register-move operation."""
        return self._new_op(OpType.MOV, (value,), comment=comment)

    def minimum(self, lhs: str, rhs: str, *, comment: str = "") -> str:
        """Create a two-operand minimum."""
        return self._new_op(OpType.MIN, (lhs, rhs), comment=comment)

    def maximum(self, lhs: str, rhs: str, *, comment: str = "") -> str:
        """Create a two-operand maximum."""
        return self._new_op(OpType.MAX, (lhs, rhs), comment=comment)

    def binary(self, optype: OpType, lhs: str, rhs: str, *, comment: str = "") -> str:
        """Create an arbitrary two-operand operation of type ``optype``."""
        # The one creator that takes its optype from the caller: check it
        # before a name is minted (``_new_op`` trusts its optype).
        if not isinstance(optype, OpType):
            raise DFGError(f"optype must be an OpType, got {optype!r}")
        return self._new_op(optype, (lhs, rhs), comment=comment)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum_tree(self, values: Sequence[str], *, comment: str = "") -> str:
        """Reduce ``values`` with a balanced tree of additions.

        Used by kernels that accumulate many products (matrix-vector
        multiplication, inner product, 2D-FDCT rows).  A balanced tree keeps
        the dependence depth logarithmic, which is what a loop-pipelining
        mapper exploits for parallel accumulation.
        """
        if not values:
            raise DFGError("sum_tree requires at least one value")
        level: List[str] = list(values)
        while len(level) > 1:
            next_level: List[str] = []
            for start in range(0, len(level) - 1, 2):
                next_level.append(self.add(level[start], level[start + 1], comment=comment))
            if len(level) % 2 == 1:
                next_level.append(level[-1])
            level = next_level
        return level[0]

    def accumulate_chain(self, values: Sequence[str], *, comment: str = "") -> str:
        """Reduce ``values`` with a serial chain of additions.

        Models accumulation into a single register (the natural form of the
        Livermore inner-product loop before any re-association).
        """
        if not values:
            raise DFGError("accumulate_chain requires at least one value")
        accumulator = values[0]
        for value in values[1:]:
            accumulator = self.add(accumulator, value, comment=comment)
        return accumulator

    # ------------------------------------------------------------------
    # Result
    # ------------------------------------------------------------------
    @property
    def dfg(self) -> DFG:
        """The graph built so far."""
        return self._dfg

    def build(self) -> DFG:
        """Return the completed graph."""
        return self._dfg
