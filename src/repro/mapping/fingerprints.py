"""Content fingerprints that seed every mapping artifact key.

Leaf module (imports nothing from the rest of :mod:`repro.mapping`) so
the pipeline and the stage executor in :mod:`repro.flowgraph.core` can
share one set of formulas.  Changing any of these invalidates every
persisted artifact store: the DFG fingerprint's text, written directly
by :meth:`DFG.canonical_json`, must stay byte-identical to the canonical
JSON of :meth:`DFG.to_dict`.

:func:`kernel_definition` is the one key here that never reaches a store:
it names a kernel's DFG within one process.
"""

from __future__ import annotations

import hashlib
from types import FunctionType
from typing import Any, Hashable, Optional, Set
from weakref import WeakKeyDictionary

from repro.arch.template import ArchitectureSpec
from repro.flowgraph.core import stage_key
from repro.ir.dfg import DFG
from repro.ir.loops import Kernel
from repro.utils.serialization import content_hash

__all__ = ["architecture_fingerprint", "dfg_fingerprint", "kernel_definition", "stage_key"]

#: Fingerprints by spec: specs are frozen, so a spec's fingerprint is
#: computed once and kept while the spec lives.  Not in the spec's own
#: ``__dict__``: specs are pickled inside stored schedules.
_ARCHITECTURE_FINGERPRINTS: "WeakKeyDictionary[ArchitectureSpec, str]" = WeakKeyDictionary()


def dfg_fingerprint(dfg: DFG) -> str:
    """SHA-256 digest of a DFG's full content (operations and edges).

    Hashes :meth:`DFG.canonical_json`, the graph's canonical JSON written
    directly rather than through :meth:`DFG.to_dict`, so the digest equals
    ``json_hash(dfg.to_dict())`` (and ``content_hash(dfg.to_dict())``)
    without building a dict per operation and per edge and sorting their
    keys.
    """
    return hashlib.sha256(dfg.canonical_json().encode("utf-8")).hexdigest()


def architecture_fingerprint(spec: ArchitectureSpec) -> str:
    """SHA-256 digest of an architecture's *structure*.

    The human-readable name is excluded on purpose: ``RSP#2`` and the
    exploration grid's ``rsp(shr=2,shc=0,stages=2)`` describe the same
    design point and must map to the same artifacts.
    """
    fingerprint = _ARCHITECTURE_FINGERPRINTS.get(spec)
    if fingerprint is None:
        fingerprint = _ARCHITECTURE_FINGERPRINTS[spec] = content_hash(
            {
                "array": spec.array,
                "sharing": spec.sharing,
                "pipelining": spec.pipelining,
                "shared_resource": spec.shared_resource,
            }
        )
    return fingerprint


def kernel_definition(kernel: Kernel, iterations: Optional[int] = None) -> Hashable:
    """What ``kernel.build(iterations)`` is built from, as an in-process key.

    The kernel's name and iteration count, and the definitions of its
    ``body`` and ``finalize``.  A function's definition is its code object,
    its defaults and its closure values; closed-over functions are keyed
    the same way, and a function that closes over itself is keyed by its
    code where it recurs.  Other values are keyed by type and value, and
    unhashable ones by identity, so a holder of the key must hold the
    kernel too, lest an id be reused.  Kernels with equal keys build equal
    DFGs (module globals aside), and separate factory calls with equal
    arguments give equal keys.
    """
    count = kernel.iterations if iterations is None else iterations
    return (
        kernel.name,
        count,
        _definition(kernel.body, set()),
        _definition(kernel.finalize, set()),
    )


def _definition(value: Any, active: Set[int]) -> Hashable:
    if isinstance(value, FunctionType):
        if id(value) in active:
            return ("recursion", value.__code__)
        active.add(id(value))
        cells = []
        for cell in value.__closure__ or ():
            try:
                contents = cell.cell_contents
            except ValueError:  # a cell not yet bound
                cells.append(("unbound",))
                continue
            cells.append(_definition(contents, active))
        definition = (
            value.__code__,
            _definition(value.__defaults__, active),
            _definition(tuple((value.__kwdefaults__ or {}).items()), active),
            tuple(cells),
        )
        active.discard(id(value))
        return definition
    if type(value) is tuple:
        return tuple(_definition(item, active) for item in value)
    try:
        hash(value)
    except TypeError:
        return ("identity", id(value))
    return (type(value), value)
