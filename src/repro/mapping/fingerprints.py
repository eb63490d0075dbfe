"""Content fingerprints that seed every mapping artifact key.

Leaf module (imports nothing from the rest of :mod:`repro.mapping`) so
both the legacy pipeline facade and the flow-graph node definitions in
:mod:`repro.flowgraph.mapping` can share one set of formulas.  Changing
any of these invalidates every persisted artifact store.
"""

from __future__ import annotations

from repro.arch.template import ArchitectureSpec
from repro.flowgraph.core import stage_key
from repro.ir.dfg import DFG
from repro.utils.serialization import content_hash, json_hash

__all__ = ["architecture_fingerprint", "dfg_fingerprint", "stage_key"]


def dfg_fingerprint(dfg: DFG) -> str:
    """SHA-256 digest of a DFG's full content (operations and edges).

    :meth:`DFG.to_dict` returns plain JSON types, so the digest equals
    ``content_hash(dfg.to_dict())`` without its generic dataclass walk.
    """
    return json_hash(dfg.to_dict())


def architecture_fingerprint(spec: ArchitectureSpec) -> str:
    """SHA-256 digest of an architecture's *structure*.

    The human-readable name is excluded on purpose: ``RSP#2`` and the
    exploration grid's ``rsp(shr=2,shc=0,stages=2)`` describe the same
    design point and must map to the same artifacts.
    """
    return content_hash(
        {
            "array": spec.array,
            "sharing": spec.sharing,
            "pipelining": spec.pipelining,
            "shared_resource": spec.shared_resource,
        }
    )
