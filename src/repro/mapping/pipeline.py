"""Staged mapping pipeline.

The seed's :class:`~repro.mapping.mapper.RSPMapper` bundled the paper's
Figure-7 mapping flow into one monolithic call; this module makes the
stages explicit and independently runnable::

    build_dfg -> base_schedule -> extract_profile        (upper half)
                       \\-> rearrange -> generate_context (lower half)

:class:`MappingPipeline` runs them through the executor
:class:`repro.flowgraph.core.Flow`, one flow per (kernel, target) call;
the stage bodies live in :mod:`repro.flowgraph.mapping`.

Every stage consumes and produces :class:`~repro.flowgraph.stats.Artifact`
values whose identity is a SHA-256 *input* hash (:func:`stage_key`, built
on the same hashing convention as the evaluation engine's job keys): the
hash of a stage's inputs is the hash of the upstream artifact keys plus
the stage's own parameters, so the whole chain is derivable from the
kernel DFG fingerprint and the architecture fingerprints alone — without
doing any mapping work.  That is what lets a warm
:class:`~repro.engine.artifacts.ArtifactStore` serve base schedules,
profiles, rearranged schedules and configuration contexts across
processes and campaigns while the only recomputed step is the DFG
construction that *defines* the fingerprint, paid once per kernel and
process.

Kernels carry Python callables, so the kernel itself cannot be content
hashed; the built DFG can (:func:`dfg_fingerprint` digests the canonical
JSON that :meth:`repro.ir.dfg.DFG.canonical_json` writes directly, equal
to that of :meth:`repro.ir.dfg.DFG.to_dict`).  The ``build_dfg`` stage is
therefore memoised in memory only, by the kernel's definition
(:func:`~repro.mapping.fingerprints.kernel_definition`), and never
persisted: its output hash seeds every downstream key, which also makes
the store self-validating — a changed kernel body changes the DFG, the
fingerprint and every key.  The DFG memo and the ``rearrange`` stage's
memos live on the artifact store, so pipelines that share a store build
each DFG once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

from repro.arch.config_cache import ConfigurationContext
from repro.arch.template import ArchitectureSpec, base_architecture
from repro.core.stalls import ScheduleProfile
from repro.errors import MappingError
from repro.flowgraph.core import Flow
from repro.flowgraph.stats import Artifact, PipelineStats
from repro.ir.dfg import DFG
from repro.ir.loops import Kernel
from repro.mapping.fingerprints import (
    architecture_fingerprint,
    dfg_fingerprint,
    kernel_definition,
    stage_key,
)
from repro.mapping.rearrange import RearrangedSchedule
from repro.mapping.schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.engine.artifacts import ArtifactStore


# ----------------------------------------------------------------------
# Mapping result (moved here from mapper.py; re-exported there)
# ----------------------------------------------------------------------
@dataclass
class MappingResult:
    """Everything produced by mapping one kernel onto one design point."""

    kernel: str
    architecture: ArchitectureSpec
    dfg: DFG
    base_schedule: Schedule
    schedule: Schedule
    cycles: int
    stall_cycles: int
    base_cycles: int
    context: Optional[ConfigurationContext] = None

    @property
    def max_multiplications_per_cycle(self) -> int:
        """Peak multiplications executing in one cycle (paper Table 3 metric)."""
        return self.base_schedule.max_multiplications_per_cycle()


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class MappingPipeline:
    """Runs the mapping stages against an artifact store.

    Parameters
    ----------
    base:
        The reference base architecture; must be a base design (the paper
        derives every RS/RP/RSP schedule from the base mapping).
    store:
        Artifact store memoising stage outputs; an in-memory store is
        created when omitted (the seed's within-run caching behaviour).
        Pass a store rooted at the engine's cache directory — or a path
        to open one there — to share artifacts across processes and
        campaigns.
    generate_contexts:
        Whether :meth:`run` produces configuration contexts.
    """

    def __init__(
        self,
        base: Optional[ArchitectureSpec] = None,
        store: Optional[Union["ArtifactStore", str, Path]] = None,
        generate_contexts: bool = False,
    ) -> None:
        self.base = base or base_architecture()
        if not self.base.is_base:
            raise MappingError("the reference architecture of the pipeline must be a base design")
        if store is None or isinstance(store, (str, Path)):
            # Imported here (not at module level) to keep repro.mapping
            # importable without triggering repro.engine's package import,
            # which itself imports repro.mapping.
            from repro.engine.artifacts import ArtifactStore

            store = ArtifactStore(store)
        self.store = store
        self.generate_contexts = generate_contexts
        self.stats = PipelineStats()
        self.base_fingerprint = architecture_fingerprint(self.base)

    # ------------------------------------------------------------------
    # Stage 1: build_dfg
    # ------------------------------------------------------------------
    def dfg_artifact(self, kernel: Kernel, iterations: Optional[int] = None) -> Artifact:
        """Materialise (and memoise) the unrolled DFG of ``kernel``.

        The artifact key is the *content* fingerprint of the built DFG,
        which seeds every downstream stage key.  Kernel bodies are Python
        callables and cannot be hashed, so this stage always runs at least
        once per process and is never persisted; within the process it is
        memoised on the store by the kernel's definition, so two kernels
        that share a name but not a body get their own DFGs.
        """
        memo_key = kernel_definition(kernel, iterations)
        memoised = self.store.dfgs.get(memo_key)
        if memoised is not None:
            self.stats.record("build_dfg", hit=True, seconds=0.0)
            return memoised[1]
        started = time.perf_counter()
        dfg = kernel.build(iterations)
        artifact = Artifact(
            stage="build_dfg",
            key=dfg_fingerprint(dfg),
            value=dfg,
            seconds=time.perf_counter() - started,
        )
        # The kernel is held with its DFG: the definition key may name
        # closure values by identity.
        self.store.dfgs[memo_key] = (kernel, artifact)
        self.stats.record("build_dfg", hit=False, seconds=artifact.seconds)
        return artifact

    # ------------------------------------------------------------------
    # Stage 2: base_schedule
    # ------------------------------------------------------------------
    def base_schedule_artifact(self, kernel: Kernel, iterations: Optional[int] = None) -> Artifact:
        """Schedule ``kernel`` on the base architecture (loop pipelining)."""
        return Flow(self, kernel, self.base, iterations).resolve("schedule")

    # ------------------------------------------------------------------
    # Stage 3: extract_profile
    # ------------------------------------------------------------------
    def profile_artifact(self, kernel: Kernel, iterations: Optional[int] = None) -> Artifact:
        """Extract the stall-estimation profile of the base schedule.

        On a warm store this never materialises the schedule: the profile
        key is derived from the schedule *key*, not its value.
        """
        return Flow(self, kernel, self.base, iterations).resolve("profile")

    def profiles_for(
        self, kernels: Sequence[Kernel], iterations: Optional[int] = None
    ) -> Dict[str, ScheduleProfile]:
        """Profiles of a kernel set, keyed by kernel name (store-backed)."""
        return {
            kernel.name: self.profile_artifact(kernel, iterations).value for kernel in kernels
        }

    # ------------------------------------------------------------------
    # Stage 4: rearrange
    # ------------------------------------------------------------------
    def rearrange_artifact(
        self,
        kernel: Kernel,
        target: ArchitectureSpec,
        iterations: Optional[int] = None,
    ) -> Artifact:
        """Rearrange the base schedule for ``target`` (RS/RP rules).

        The artifact bundles the rearranged schedule with the cycle
        summary (actual and stall-free lengths), matching
        :func:`~repro.mapping.rearrange.evaluate_rearrangement`.  The
        actual pass runs once per target; the stall-free pass runs once
        per base schedule, array, multiplier latency and sharing flag on
        this pipeline's store, because it reads nothing else of the target.
        """
        if target.is_base:
            raise MappingError("the rearrange stage applies to non-base design points only")
        return Flow(self, kernel, target, iterations).resolve("rearranged")

    # ------------------------------------------------------------------
    # Stage 5: generate_context
    # ------------------------------------------------------------------
    def context_artifact(
        self,
        kernel: Kernel,
        target: Optional[ArchitectureSpec] = None,
        iterations: Optional[int] = None,
    ) -> Artifact:
        """Generate the configuration context of ``kernel`` on ``target``."""
        return Flow(self, kernel, target or self.base, iterations).resolve("context")

    # ------------------------------------------------------------------
    # End-to-end run
    # ------------------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        architecture: Optional[ArchitectureSpec] = None,
        iterations: Optional[int] = None,
    ) -> MappingResult:
        """Map ``kernel`` onto ``architecture`` through the stages.

        Produces a :class:`MappingResult` bit-identical to the seed
        mapper's ``map_kernel`` for the same inputs, with every stage
        served from the artifact store when warm.  The pipeline's base
        keeps its base schedule; another base design, or a design on an
        array of other dimensions, raises :class:`~repro.errors.MappingError`
        (as every stage method does).
        """
        target = architecture or self.base
        outputs: Tuple[str, ...] = ("dfg", "schedule", "rearranged")
        if self.generate_contexts:
            outputs += ("context",)
        artifacts = Flow(self, kernel, target, iterations).run(outputs)
        rearranged: RearrangedSchedule = artifacts["rearranged"].value
        summary = rearranged.summary
        return MappingResult(
            kernel=kernel.name,
            architecture=target,
            dfg=artifacts["dfg"].value,
            base_schedule=artifacts["schedule"].value,
            schedule=rearranged.schedule,
            cycles=summary.cycles,
            stall_cycles=summary.stall_cycles,
            base_cycles=summary.base_cycles,
            context=artifacts["context"].value if self.generate_contexts else None,
        )
