"""The executor of the paper's five mapping stages (Figure 7)::

    build_dfg -> base_schedule -> extract_profile
                       \\-> rearrange -> generate_context

A :class:`Flow` resolves the outputs of one (kernel, target) call of a
:class:`~repro.mapping.pipeline.MappingPipeline` through the pipeline's
:class:`~repro.engine.artifacts.ArtifactStore`, key first:

1. An output's store key derives from the *keys* of its inputs
   (:func:`stage_key`), rooted at the DFG's content fingerprint and the
   architectures' structural fingerprints, so a warm store serves a
   profile without scheduling anything.
2. Each stage makes one ``fetch``.  Only on a miss does its body
   (:mod:`repro.flowgraph.mapping`) run, reading the inputs it needs
   through the flow, and one ``put`` follows.

Each stage records its self-time: a stage resolved while another one
computes is not counted twice.  For the pipeline's own base design,
``rearranged`` is the base schedule itself, under the base schedule's key,
neither stored nor counted.  A target whose array has other dimensions
than the base's is refused when its flow is made, whichever output the
caller asks for.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.flowgraph.stats import Artifact
from repro.utils.serialization import content_hash

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.arch.template import ArchitectureSpec
    from repro.ir.loops import Kernel
    from repro.mapping.pipeline import MappingPipeline


def stage_key(stage: str, **inputs: object) -> str:
    """Store key of one stage call: ``hash(stage + input keys)``.

    Every persisted artifact store is addressed by this formula.
    """
    return content_hash({"stage": stage, "inputs": inputs})


#: The stage behind each stored output and, per ``stage_key`` parameter,
#: the output whose key it takes.  ``base`` and ``target`` stand for the
#: structural fingerprints of the pipeline's base and of the call's target.
STAGE_INPUTS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "schedule": ("base_schedule", {"dfg": "dfg", "architecture": "base"}),
    "profile": ("extract_profile", {"schedule": "schedule", "dfg": "dfg"}),
    "rearranged": (
        "rearrange",
        {"schedule": "schedule", "dfg": "dfg", "architecture": "target"},
    ),
    "context": ("generate_context", {"schedule": "rearranged", "dfg": "dfg"}),
}


class Flow:
    """The mapping stages of one (kernel, target) call of ``pipeline``.

    Outputs are named ``dfg``, ``schedule``, ``profile``, ``rearranged``
    and ``context``; each is resolved at most once per flow.
    """

    def __init__(
        self,
        pipeline: "MappingPipeline",
        kernel: "Kernel",
        target: "ArchitectureSpec",
        iterations: Optional[int] = None,
    ) -> None:
        # Imported here: repro.mapping imports this module for stage_key.
        from repro.flowgraph import mapping as stages
        from repro.mapping.fingerprints import architecture_fingerprint

        self.pipeline = pipeline
        self.kernel = kernel
        self.target = target
        self.iterations = iterations
        self._stages = stages
        self._check_array()
        base_key = pipeline.base_fingerprint
        self._keys: Dict[str, str] = {
            "base": base_key,
            "target": base_key if target is pipeline.base else architecture_fingerprint(target),
        }
        self._artifacts: Dict[str, Artifact] = {}
        #: Seconds spent in stages resolved inside the stage computing now.
        self._nested = 0.0

    def run(self, outputs: Sequence[str]) -> Dict[str, Artifact]:
        """Resolve ``outputs`` in order; their artifacts by output name."""
        return {output: self.resolve(output) for output in outputs}

    def resolve(self, output: str) -> Artifact:
        """The artifact of ``output``: fetched, or computed on a miss."""
        artifact = self._artifacts.get(output)
        if artifact is None:
            artifact = self._artifacts[output] = self._materialise(output)
        return artifact

    def value(self, output: str) -> Any:
        """The value of ``output`` (see :meth:`resolve`)."""
        return self.resolve(output).value

    def key(self, output: str) -> str:
        """The store key of ``output``, derived from upstream keys only."""
        key = self._keys.get(output)
        if key is None:
            if output == "dfg":
                key = self.resolve("dfg").key
            elif output == "rearranged" and self._passes_through():
                key = self.key("schedule")
            else:
                stage, inputs = STAGE_INPUTS[output]
                key = stage_key(
                    stage, **{name: self.key(source) for name, source in inputs.items()}
                )
            self._keys[output] = key
        return key

    def _check_array(self) -> None:
        """Refuse a target whose array is not the base's: every schedule
        is rearranged from a base schedule, PE for PE."""
        array, base_array = self.target.array, self.pipeline.base.array
        if array.rows != base_array.rows or array.cols != base_array.cols:
            raise MappingError(
                "the target architecture must have the same array dimensions as the base"
            )

    def _passes_through(self) -> bool:
        """Whether ``rearranged`` is the base schedule itself.

        Only the pipeline's own base passes through: another base design
        (other buses, say) would get a schedule made for another array.
        """
        if not self.target.is_base:
            return False
        if self._keys["target"] != self._keys["base"]:
            raise MappingError(
                f"base design {self.target.name!r} is not the pipeline's base "
                f"{self.pipeline.base.name!r}: map it through a pipeline built on it"
            )
        return True

    def _materialise(self, output: str) -> Artifact:
        pipeline = self.pipeline
        if output == "dfg":
            return pipeline.dfg_artifact(self.kernel, self.iterations)
        if output == "rearranged" and self._passes_through():
            schedule = self.resolve("schedule")
            return Artifact("rearrange", schedule.key, self._stages.passthrough(self))
        stage = STAGE_INPUTS[output][0]
        body, kind = self._stages.BODIES[stage]
        key = self.key(output)
        outer, self._nested = self._nested, 0.0
        started = time.perf_counter()
        try:
            hit, value = pipeline.store.fetch(stage, key)
            if not hit:
                value = body(self)
                pipeline.store.put(stage, key, value)
        finally:
            inclusive = time.perf_counter() - started
            nested, self._nested = self._nested, outer + inclusive
        seconds = inclusive - nested
        pipeline.stats.record(stage, hit=hit, seconds=seconds)
        if not isinstance(value, kind):
            raise MappingError(
                f"stage '{stage}' {'was served' if hit else 'produced'} a value of "
                f"type {type(value).__name__}, expected {kind.__name__}"
            )
        if output == "rearranged":
            value = self._stages.restamp_rearranged(value, self.target)
        elif output == "context":
            value = self._stages.restamp_context(value, self.kernel, self.target)
        return Artifact(stage, key, value, from_store=hit, seconds=seconds)
