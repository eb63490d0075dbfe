"""Dataflow-graph intermediate representation for kernel loops.

The RSP flow (paper Section 4) operates on the *configuration contexts* of
kernel loops, i.e. on the operations of the loop body and their data
dependences.  This module provides the dataflow graph (DFG) representation
used throughout the reproduction:

* :class:`OpType` — the operation alphabet used by the paper's kernels
  (load, store, multiply, add, subtract, absolute value, shift) plus a few
  generic ALU operations so user kernels are not artificially restricted.
* :class:`Operation` — a single operation instance, annotated with the loop
  iteration it belongs to (the RS rearrangement rule orders operations by
  iteration).
* :class:`DFG` — the dependence graph: operations by name plus successor
  and predecessor maps, all insertion-ordered dicts, that record each
  edge's operand port.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import DFGError, DFGValidationError, UnknownOperationError


class OpType(enum.Enum):
    """Operation types supported by the kernel IR.

    The values correspond to the mnemonics used in the paper's Table 3
    (``mult``, ``add``, ``sub``, ``abs``, ``shift``) plus memory operations
    and a small set of additional ALU operations for user-defined kernels.
    """

    LOAD = "load"
    STORE = "store"
    MUL = "mult"
    ADD = "add"
    SUB = "sub"
    ABS = "abs"
    SHIFT = "shift"
    AND = "and"
    OR = "or"
    XOR = "xor"
    MIN = "min"
    MAX = "max"
    MOV = "mov"
    CONST = "const"
    NOP = "nop"

    @property
    def is_memory(self) -> bool:
        """True for operations that occupy a data-bus slot."""
        return self in (OpType.LOAD, OpType.STORE)

    @property
    def is_multiplication(self) -> bool:
        """True for operations executed on the (critical) array multiplier."""
        return self is OpType.MUL

    @property
    def is_alu(self) -> bool:
        """True for operations executed on the primitive ALU."""
        return self in (
            OpType.ADD,
            OpType.SUB,
            OpType.ABS,
            OpType.AND,
            OpType.OR,
            OpType.XOR,
            OpType.MIN,
            OpType.MAX,
            OpType.MOV,
        )

    @property
    def is_shift(self) -> bool:
        """True for operations executed on the shift logic."""
        return self is OpType.SHIFT

    @property
    def produces_value(self) -> bool:
        """True if the operation defines a value consumed by successors."""
        return self not in (OpType.STORE, OpType.NOP)


#: Operation types that require a functional unit inside (or shared by) a PE.
COMPUTE_OPTYPES: Tuple[OpType, ...] = (
    OpType.MUL,
    OpType.ADD,
    OpType.SUB,
    OpType.ABS,
    OpType.SHIFT,
    OpType.AND,
    OpType.OR,
    OpType.XOR,
    OpType.MIN,
    OpType.MAX,
    OpType.MOV,
)


@dataclass
class Operation:
    """A single operation instance in a kernel dataflow graph.

    Attributes
    ----------
    name:
        Unique identifier within the DFG.
    optype:
        The :class:`OpType` of the operation.
    iteration:
        Index of the loop iteration the operation belongs to.  The RS
        rearrangement rule ("shared resources are assigned to PEs in the
        order of loop iteration") sorts by this field.
    array:
        For memory operations, the symbolic name of the accessed array.
    index:
        For memory operations, the (symbolic or numeric) element index.
    immediate:
        Optional constant operand (e.g. shift amount, constant factor ``C``
        of the paper's matrix-multiplication example).
    comment:
        Free-form annotation used by the figure renderers.
    """

    name: str
    optype: OpType
    iteration: int = 0
    array: Optional[str] = None
    index: Optional[int] = None
    immediate: Optional[int] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise DFGError("operation name must be a non-empty string")
        if not isinstance(self.optype, OpType):
            raise DFGError(f"optype must be an OpType, got {self.optype!r}")
        if self.iteration < 0:
            raise DFGError(f"iteration must be non-negative, got {self.iteration}")

    @property
    def is_memory(self) -> bool:
        return self.optype.is_memory

    @property
    def is_multiplication(self) -> bool:
        return self.optype.is_multiplication

    def label(self) -> str:
        """Short human-readable label used in schedule figures."""
        if self.optype is OpType.LOAD:
            return "Ld"
        if self.optype is OpType.STORE:
            return "St"
        if self.optype is OpType.MUL:
            return "*"
        if self.optype is OpType.ADD:
            return "+"
        if self.optype is OpType.SUB:
            return "-"
        if self.optype is OpType.SHIFT:
            return "<<"
        if self.optype is OpType.ABS:
            return "abs"
        return self.optype.value


class DFG:
    """A kernel dataflow graph.

    Operations are keyed by name.  Edges are data dependences from
    producer to consumer, each with an optional ``port``: the operand port
    of the consumer the value feeds (0 or 1 for binary operations), or
    ``None`` for ordering-only edges.  Operations, edges, predecessors and
    successors all iterate in insertion order, and so does everything
    derived from them (topological order, :meth:`to_dict`, fingerprints).
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._ops: Dict[str, Operation] = {}
        #: ``producer -> {consumer: port}`` and ``consumer -> {producer: port}``.
        self._succ: Dict[str, Dict[str, Optional[int]]] = {}
        self._pred: Dict[str, Dict[str, Optional[int]]] = {}
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def fresh_name(self, prefix: str) -> str:
        """Return a new operation name unique within this DFG."""
        while True:
            candidate = f"{prefix}_{next(self._counter)}"
            if candidate not in self._ops:
                return candidate

    def add_operation(self, operation: Operation) -> Operation:
        """Add ``operation`` to the graph.  Names must be unique."""
        name = operation.name
        if name in self._ops:
            raise DFGError(f"duplicate operation name: {name!r}")
        self._ops[name] = operation
        self._succ[name] = {}
        self._pred[name] = {}
        return operation

    def add_dependence(self, producer: str, consumer: str, port: Optional[int] = None) -> None:
        """Add a data dependence edge from ``producer`` to ``consumer``.

        A pair carries at most one edge, so an operation consuming one value
        on two ports reads the second through a ``mov`` copy, as
        :class:`~repro.ir.builder.DFGBuilder` arranges.
        """
        # ``_succ`` and ``_pred`` hold a dict for every operation, so the
        # lookups double as the membership checks.
        successors = self._succ.get(producer)
        predecessors = self._pred.get(consumer)
        if successors is None or predecessors is None:
            unknown = producer if successors is None else consumer
            raise UnknownOperationError(f"unknown operation: {unknown!r}")
        if producer == consumer:
            raise DFGError(f"self dependence on {producer!r} is not allowed")
        if consumer in successors:
            raise DFGError(f"duplicate dependence {producer!r} -> {consumer!r}")
        successors[consumer] = port
        predecessors[producer] = port

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __iter__(self) -> Iterator[str]:
        return iter(self._ops)

    def operation(self, name: str) -> Operation:
        """Return the :class:`Operation` registered under ``name``."""
        try:
            return self._ops[name]
        except KeyError:
            raise UnknownOperationError(f"unknown operation: {name!r}") from None

    def operations(self) -> List[Operation]:
        """All operations, in insertion order."""
        return list(self._ops.values())

    def operations_of_type(self, optype: OpType) -> List[Operation]:
        """All operations with the given type."""
        return [op for op in self._ops.values() if op.optype is optype]

    def predecessors(self, name: str) -> List[str]:
        """Names of operations producing values consumed by ``name``."""
        try:
            return list(self._pred[name])
        except KeyError:
            raise UnknownOperationError(f"unknown operation: {name!r}") from None

    def successors(self, name: str) -> List[str]:
        """Names of operations consuming the value produced by ``name``."""
        try:
            return list(self._succ[name])
        except KeyError:
            raise UnknownOperationError(f"unknown operation: {name!r}") from None

    def adjacency(
        self,
    ) -> Tuple[Dict[str, Dict[str, Optional[int]]], Dict[str, Dict[str, Optional[int]]]]:
        """The ``consumer -> {producer: port}`` and ``producer -> {consumer: port}`` maps.

        The graph's own dicts, for readers that walk every edge without the
        copies :meth:`predecessors` and :meth:`successors` make: treat them
        as read-only.
        """
        return self._pred, self._succ

    def port(self, producer: str, consumer: str) -> Optional[int]:
        """Operand port of ``consumer`` fed by the edge from ``producer``."""
        try:
            return self._succ[producer][consumer]
        except KeyError:
            raise DFGError(f"no dependence {producer!r} -> {consumer!r}") from None

    def edges(self) -> List[Tuple[str, str]]:
        """All dependence edges as (producer, consumer) pairs."""
        return [
            (producer, consumer)
            for producer, successors in self._succ.items()
            for consumer in successors
        ]

    def number_of_edges(self) -> int:
        return sum(len(successors) for successors in self._succ.values())

    def topological_order(self) -> List[str]:
        """Operation names in a topological order.

        Kahn's algorithm, first in first out: the operations without
        producers in insertion order, then each consumer as soon as its
        last producer is placed.

        Raises :class:`DFGValidationError` when the graph has a cycle.
        """
        pending = {name: len(producers) for name, producers in self._pred.items()}
        order = [name for name, count in pending.items() if count == 0]
        for name in order:  # ``order`` grows while it is walked
            for consumer in self._succ[name]:
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    order.append(consumer)
        if len(order) != len(self._ops):
            raise DFGValidationError(f"DFG {self.name!r} contains a dependence cycle")
        return order

    def is_acyclic(self) -> bool:
        """True when the dependence graph has no cycles."""
        try:
            self.topological_order()
        except DFGValidationError:
            return False
        return True

    def iterations(self) -> List[int]:
        """Sorted list of distinct iteration indices present in the graph."""
        return sorted({op.iteration for op in self.operations()})

    def operations_in_iteration(self, iteration: int) -> List[Operation]:
        """Operations annotated with the given iteration index."""
        return [op for op in self.operations() if op.iteration == iteration]

    def op_counts(self) -> Dict[OpType, int]:
        """Histogram of operation types."""
        counts: Dict[OpType, int] = {}
        for op in self.operations():
            counts[op.optype] = counts.get(op.optype, 0) + 1
        return counts

    def operation_set(self) -> List[OpType]:
        """Sorted list of compute operation types used by the kernel.

        Memory operations are excluded because paper Table 3 lists only the
        computational operation set of each kernel.
        """
        present = {op.optype for op in self.operations() if not op.optype.is_memory}
        present.discard(OpType.CONST)
        present.discard(OpType.NOP)
        return sorted(present, key=lambda optype: optype.value)

    def multiplication_count(self) -> int:
        """Total number of multiplication operations."""
        return sum(1 for op in self.operations() if op.is_multiplication)

    def memory_operation_count(self) -> int:
        """Total number of load/store operations."""
        return sum(1 for op in self.operations() if op.is_memory)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def depth(self, latency_of=None) -> int:
        """Length of the longest dependence chain in cycles.

        Parameters
        ----------
        latency_of:
            Optional callable mapping an :class:`Operation` to its latency in
            cycles.  Defaults to one cycle per operation.
        """
        if latency_of is None:
            latency_of = lambda op: 1  # noqa: E731 - tiny default
        finish: Dict[str, int] = {}
        for name in self.topological_order():
            op = self.operation(name)
            start = 0
            for pred in self.predecessors(name):
                start = max(start, finish[pred])
            finish[name] = start + latency_of(op)
        return max(finish.values()) if finish else 0

    def critical_path(self, latency_of=None) -> List[str]:
        """Operation names along one longest dependence chain."""
        if latency_of is None:
            latency_of = lambda op: 1  # noqa: E731 - tiny default
        finish: Dict[str, int] = {}
        best_pred: Dict[str, Optional[str]] = {}
        for name in self.topological_order():
            op = self.operation(name)
            start = 0
            chosen: Optional[str] = None
            for pred in self.predecessors(name):
                if finish[pred] > start:
                    start = finish[pred]
                    chosen = pred
            finish[name] = start + latency_of(op)
            best_pred[name] = chosen
        if not finish:
            return []
        tail = max(finish, key=lambda name: finish[name])
        path = [tail]
        while best_pred[path[-1]] is not None:
            path.append(best_pred[path[-1]])  # type: ignore[arg-type]
        return list(reversed(path))

    # ------------------------------------------------------------------
    # Composition / serialisation
    # ------------------------------------------------------------------
    def merge(self, other: "DFG", prefix: Optional[str] = None) -> Dict[str, str]:
        """Copy all operations and edges of ``other`` into this graph.

        Returns the mapping from names in ``other`` to the (possibly
        prefixed) names created in this graph.
        """
        renaming: Dict[str, str] = {}
        for op in other.operations():
            new_name = op.name if prefix is None else f"{prefix}{op.name}"
            if new_name in self._ops:
                new_name = self.fresh_name(new_name)
            renamed = Operation(
                name=new_name,
                optype=op.optype,
                iteration=op.iteration,
                array=op.array,
                index=op.index,
                immediate=op.immediate,
                comment=op.comment,
            )
            self.add_operation(renamed)
            renaming[op.name] = new_name
        for producer, consumer in other.edges():
            self.add_dependence(
                renaming[producer], renaming[consumer], port=other.port(producer, consumer)
            )
        return renaming

    def copy(self, name: Optional[str] = None) -> "DFG":
        """Deep copy of the graph (operations are re-created)."""
        clone = DFG(name or self.name)
        clone.merge(self)
        return clone

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation of the graph."""
        return {
            "name": self.name,
            "operations": [
                {
                    "name": op.name,
                    "optype": op.optype.value,
                    "iteration": op.iteration,
                    "array": op.array,
                    "index": op.index,
                    "immediate": op.immediate,
                    "comment": op.comment,
                }
                for op in self.operations()
            ],
            "edges": [
                {
                    "producer": producer,
                    "consumer": consumer,
                    "port": self.port(producer, consumer),
                }
                for producer, consumer in self.edges()
            ],
        }

    def canonical_json(self) -> str:
        """:meth:`to_dict` as canonical JSON, written without building it.

        Byte-identical to ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))``: the same keys in sorted order, and every
        value as ``json.dumps`` writes it.  This is the text
        :func:`~repro.mapping.fingerprints.dfg_fingerprint` hashes, so it
        must change only together with :meth:`to_dict`.
        """
        value = _json_value
        operations = ",".join(
            [
                f'{{"array":{value(op.array)},"comment":{value(op.comment)},'
                f'"immediate":{value(op.immediate)},"index":{value(op.index)},'
                f'"iteration":{value(op.iteration)},"name":{value(op.name)},'
                f'"optype":{encode_basestring_ascii(op.optype._value_)}}}'
                for op in self._ops.values()
            ]
        )
        edges: List[str] = []
        for producer, successors in self._succ.items():
            if successors:
                producer_json = value(producer)
                edges.extend(
                    f'{{"consumer":{value(consumer)},"port":{value(port)},'
                    f'"producer":{producer_json}}}'
                    for consumer, port in successors.items()
                )
        return (
            f'{{"edges":[{",".join(edges)}],"name":{value(self.name)},'
            f'"operations":[{operations}]}}'
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DFG":
        """Rebuild a graph from :meth:`to_dict` output."""
        dfg = cls(str(payload.get("name", "dfg")))
        for op_payload in payload["operations"]:  # type: ignore[index]
            dfg.add_operation(
                Operation(
                    name=op_payload["name"],
                    optype=OpType(op_payload["optype"]),
                    iteration=int(op_payload.get("iteration", 0)),
                    array=op_payload.get("array"),
                    index=op_payload.get("index"),
                    immediate=op_payload.get("immediate"),
                    comment=op_payload.get("comment", ""),
                )
            )
        for edge_payload in payload["edges"]:  # type: ignore[index]
            dfg.add_dependence(
                edge_payload["producer"],
                edge_payload["consumer"],
                port=edge_payload.get("port"),
            )
        return dfg

    def __repr__(self) -> str:
        return (
            f"DFG(name={self.name!r}, operations={len(self)}, "
            f"edges={self.number_of_edges()})"
        )


def _json_value(value: object) -> str:
    """``value`` as ``json.dumps`` writes it in :meth:`DFG.canonical_json`.

    ``None``, exact strings and exact ints, nearly every field of a DFG,
    are written directly.  Anything else (floats, bools, subclasses of
    ``int`` or ``str``, containers) goes through ``json.dumps`` itself.
    """
    if value is None:
        return "null"
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return repr(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
