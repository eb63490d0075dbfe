"""Top-level kernel-to-architecture mapping interface.

:class:`RSPMapper` is the single entry point used by examples, benchmarks
and the evaluation harness.  Since the staged refactor it is a thin facade
over :class:`~repro.mapping.pipeline.MappingPipeline`: base scheduling,
RS/RP rearrangement and context generation run as content-hashed pipeline
stages, memoised by an :class:`~repro.engine.artifacts.ArtifactStore`
(in-memory by default, which reproduces the seed mapper's per-instance
caching; pass a persistent store to share schedules across processes).

>>> from repro.arch import base_architecture, rsp_architecture
>>> from repro.kernels import get_kernel
>>> from repro.mapping import RSPMapper
>>> mapper = RSPMapper()
>>> result = mapper.map_kernel(get_kernel("MVM"), rsp_architecture(2))
>>> result.cycles >= 1
True
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.arch.template import ArchitectureSpec
from repro.ir.dfg import DFG
from repro.ir.loops import Kernel
from repro.mapping.pipeline import MappingPipeline, MappingResult
from repro.mapping.schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.engine.artifacts import ArtifactStore

__all__ = ["MappingResult", "RSPMapper"]


class RSPMapper:
    """Maps kernels onto base, RS, RP and RSP design points.

    The mapper caches base-architecture schedules per kernel so sweeping the
    nine paper architectures only schedules each kernel once and then
    rearranges, exactly like the paper's flow (base mapping happens in the
    upper half of Figure 7, rearrangement in the lower half).

    Parameters
    ----------
    base:
        Reference base architecture; must be a base design.
    generate_contexts:
        Whether :meth:`map_kernel` produces configuration contexts.
    store:
        Optional persistent artifact store; defaults to in-memory
        memoisation (the seed behaviour).
    pipeline:
        An existing pipeline to wrap; overrides the other arguments.
    """

    def __init__(
        self,
        base: Optional[ArchitectureSpec] = None,
        generate_contexts: bool = False,
        store: Optional["ArtifactStore"] = None,
        pipeline: Optional[MappingPipeline] = None,
    ) -> None:
        self.pipeline = pipeline or MappingPipeline(
            base=base, store=store, generate_contexts=generate_contexts
        )
        self.base = self.pipeline.base
        self.generate_contexts = self.pipeline.generate_contexts

    # ------------------------------------------------------------------
    # Base mapping
    # ------------------------------------------------------------------
    def build_dfg(self, kernel: Kernel, iterations: Optional[int] = None) -> DFG:
        """Materialise (and cache) the unrolled DFG of ``kernel``."""
        return self.pipeline.dfg_artifact(kernel, iterations).value

    def base_schedule(self, kernel: Kernel, iterations: Optional[int] = None) -> Schedule:
        """The initial configuration context (base-architecture schedule)."""
        return self.pipeline.base_schedule_artifact(kernel, iterations).value

    # ------------------------------------------------------------------
    # Mapping onto a design point
    # ------------------------------------------------------------------
    def map_kernel(
        self,
        kernel: Kernel,
        architecture: Optional[ArchitectureSpec] = None,
        iterations: Optional[int] = None,
    ) -> MappingResult:
        """Map ``kernel`` onto ``architecture`` (defaults to the base design)."""
        return self.pipeline.run(kernel, architecture, iterations)

