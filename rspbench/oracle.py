"""Independent output oracle for the ``exact-flow`` workload.

A kernel's dataflow graph is evaluated from its ``DFG.to_dict()`` form in
program order, with operation semantics written here rather than taken
from ``repro.sim``.  Every base and exact mapping is then simulated with
the repository's cycle-accurate ``ArraySimulator`` on the same seeded
inputs, and the final memories must agree.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Mapping, Tuple

Memory = Dict[str, Dict[int, int]]


def _apply(optype: str, operands: List[int], immediate) -> int:
    if optype == "mult":
        return operands[0] * operands[1]
    if optype == "add":
        return operands[0] + operands[1]
    if optype == "sub":
        return operands[0] - operands[1]
    if optype == "abs":
        return abs(operands[0])
    if optype == "shift":
        return operands[0] << immediate if immediate >= 0 else operands[0] >> -immediate
    if optype == "and":
        return operands[0] & operands[1]
    if optype == "or":
        return operands[0] | operands[1]
    if optype == "xor":
        return operands[0] ^ operands[1]
    if optype == "min":
        return min(operands[0], operands[1])
    if optype == "max":
        return max(operands[0], operands[1])
    if optype == "mov":
        return operands[0]
    raise ValueError(f"the oracle has no semantics for {optype!r}")


def program_order(graph: Mapping) -> List[dict]:
    """Operations in insertion order, delayed only where an edge demands it."""
    operations = graph["operations"]
    position = {op["name"]: index for index, op in enumerate(operations)}
    waiting = {op["name"]: 0 for op in operations}
    consumers: Dict[str, List[str]] = {op["name"]: [] for op in operations}
    for edge in graph["edges"]:
        waiting[edge["consumer"]] += 1
        consumers[edge["producer"]].append(edge["consumer"])
    ready = [index for index, op in enumerate(operations) if not waiting[op["name"]]]
    heapq.heapify(ready)
    order: List[dict] = []
    while ready:
        op = operations[heapq.heappop(ready)]
        order.append(op)
        for consumer in consumers[op["name"]]:
            waiting[consumer] -= 1
            if not waiting[consumer]:
                heapq.heappush(ready, position[consumer])
    if len(order) != len(operations):
        raise ValueError(f"DFG {graph['name']!r} has a dependence cycle")
    return order


def kernel_inputs(graph: Mapping, rng: random.Random) -> Memory:
    """Seeded values for every array element the kernel loads."""
    memory: Memory = {}
    for op in graph["operations"]:
        if op["optype"] == "load":
            array = memory.setdefault(op["array"], {})
            index = op["index"] or 0
            if index not in array:
                array[index] = rng.randint(-99, 99)
    return memory


def evaluate(graph: Mapping, inputs: Memory) -> Memory:
    """Final memory after running the DFG on ``inputs`` in program order."""
    memory = {array: dict(values) for array, values in inputs.items()}
    producers: Dict[str, List[Tuple[int, str]]] = {op["name"]: [] for op in graph["operations"]}
    optype_of = {op["name"]: op["optype"] for op in graph["operations"]}
    for edge in graph["edges"]:
        if optype_of[edge["producer"]] == "store":
            continue  # memory-ordering edge: no operand value
        port = edge["port"] if edge["port"] is not None else 0
        producers[edge["consumer"]].append((port, edge["producer"]))
    values: Dict[str, int] = {}
    for op in program_order(graph):
        operands = [values[name] for _, name in sorted(producers[op["name"]])]
        kind = op["optype"]
        if kind == "const":
            values[op["name"]] = op["immediate"]
        elif kind == "load":
            values[op["name"]] = memory.get(op["array"], {}).get(op["index"] or 0, 0)
        elif kind == "store":
            memory.setdefault(op["array"], {})[op["index"] or 0] = operands[0]
        else:
            values[op["name"]] = _apply(kind, operands, op["immediate"])
    return memory


def dense(memory: Memory) -> Dict[str, List[int]]:
    """Arrays as lists from index 0 (unset elements read as 0)."""
    return {
        array: [values.get(index, 0) for index in range(max(values) + 1)]
        for array, values in memory.items()
        if values
    }
