"""Staged mapping pipeline, executed as a declarative flow graph.

The seed's :class:`~repro.mapping.mapper.RSPMapper` bundled the paper's
Figure-7 mapping flow into one monolithic call; this module makes the
stages explicit and independently runnable::

    build_dfg -> base_schedule -> extract_profile        (upper half)
                       \\-> rearrange -> generate_context (lower half)

Since the flow-graph refactor the stages are :class:`repro.flowgraph.Node`
definitions (:mod:`repro.flowgraph.mapping`) executed by the
:class:`repro.flowgraph.Flow` runtime; :class:`MappingPipeline` is the
canonical facade over the default five-node flow and accepts custom flow
configs (skip-rearrange routing, raced mapper variants) through its
``flow`` parameter.  The execution discipline is unchanged and the
produced artifacts are byte-identical to the pre-flow pipeline.

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
(:func:`~repro.mapping.fingerprints.kernel_definition`), and marked
non-persistent: its output hash seeds every downstream key, which also
makes the store self-validating — a changed kernel body changes the DFG,
the fingerprint and every key.  The DFG memo and the ``rearrange`` node's
memos live on the artifact store, so pipelines that share a store build
each DFG once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple, Union

from repro.arch.config_cache import ConfigurationContext
from repro.arch.template import ArchitectureSpec, base_architecture
from repro.core.stalls import ScheduleProfile
from repro.errors import MappingError
from repro.flowgraph.core import Flow, FlowContext
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
    from repro.flowgraph.config import ConfigSource


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

    @property
    def cycle_overhead_vs_base(self) -> int:
        """Extra cycles relative to the base architecture mapping."""
        return self.cycles - self.base_cycles


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class MappingPipeline:
    """Runs the mapping flow against an artifact store.

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
    flow:
        The flow to execute: ``None`` for the canonical five-node flow, a
        pre-built :class:`~repro.flowgraph.core.Flow`, or a flow config
        (dict or JSON path, see :mod:`repro.flowgraph.config`) rewiring
        the registered mapping nodes — e.g. skipping ``rearrange`` for
        balanced profiles or racing ``rearrange`` against ``remap``.
    """

    def __init__(
        self,
        base: Optional[ArchitectureSpec] = None,
        store: Optional[Union["ArtifactStore", str, Path]] = None,
        generate_contexts: bool = False,
        flow: Union[Flow, "ConfigSource", None] = None,
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
        self._base_fingerprint = architecture_fingerprint(self.base)
        if isinstance(flow, Flow):
            self.flow = flow
        else:
            # Imported lazily: repro.flowgraph.mapping imports the leaf
            # modules of repro.mapping, so a module-level import here
            # would be circular.
            from repro.flowgraph.mapping import build_mapping_flow

            self.flow = build_mapping_flow(self, flow)

    # ------------------------------------------------------------------
    # Flow plumbing
    # ------------------------------------------------------------------
    def _flow_context(
        self,
        kernel: Kernel,
        target: ArchitectureSpec,
        iterations: Optional[int] = None,
    ) -> FlowContext:
        """A fresh execution context seeded with this call's inputs.

        Seed architectures are pre-keyed with their structural
        fingerprints so node key derivations never re-hash them.
        """
        values: Dict[str, Any] = {
            "kernel": kernel,
            "base_architecture": self.base,
            "target_architecture": target,
        }
        if iterations is not None:
            values["iterations"] = iterations
        keys = {
            "base_architecture": self._base_fingerprint,
            "target_architecture": (
                self._base_fingerprint
                if target is self.base
                else architecture_fingerprint(target)
            ),
        }
        return FlowContext(values, keys)

    def _resolve(
        self,
        output: str,
        kernel: Kernel,
        target: ArchitectureSpec,
        iterations: Optional[int] = None,
    ) -> Artifact:
        return self.flow.resolve(
            output,
            context=self._flow_context(kernel, target, iterations),
            store=self.store,
            stats=self.stats,
        )

    def describe_flow(self) -> Dict[str, Any]:
        """JSON-friendly description of the executing flow (for reports)."""
        return {
            "name": self.flow.name,
            "edges": list(self.flow.edge_graph.expressions),
            "nodes": [node.name for node in self.flow.nodes],
        }

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
        that share a name but not a body get their own DFGs.  (This is
        the canonical flow's ``build_dfg`` resolver.)
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
        return self._resolve("schedule", kernel, self.base, iterations)

    # ------------------------------------------------------------------
    # Stage 3: extract_profile
    # ------------------------------------------------------------------
    def profile_artifact(self, kernel: Kernel, iterations: Optional[int] = None) -> Artifact:
        """Extract the stall-estimation profile of the base schedule.

        On a warm store this never materialises the schedule: the profile
        key is derived from the schedule *key*, not its value (the flow
        runtime resolves keys without fetching values).
        """
        return self._resolve("profile", kernel, self.base, iterations)

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
        With a custom flow, the returned artifact is whatever branch the
        flow routed (or raced) the ``rearranged`` output through.
        """
        if target.is_base:
            raise MappingError("the rearrange stage applies to non-base design points only")
        return self._resolve("rearranged", kernel, target, iterations)

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
        return self._resolve("context", kernel, target or self.base, iterations)

    # ------------------------------------------------------------------
    # End-to-end run
    # ------------------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        architecture: Optional[ArchitectureSpec] = None,
        iterations: Optional[int] = None,
    ) -> MappingResult:
        """Map ``kernel`` onto ``architecture`` through the flow.

        Produces a :class:`MappingResult` bit-identical to the seed
        mapper's ``map_kernel`` for the same inputs, with every stage
        served from the artifact store when warm.
        """
        target = architecture or self.base
        if target.array.rows != self.base.array.rows or target.array.cols != self.base.array.cols:
            raise MappingError(
                "the target architecture must have the same array dimensions as the base"
            )
        outputs: Tuple[str, ...] = ("dfg", "schedule", "rearranged")
        if self.generate_contexts:
            outputs += ("context",)
        ctx = self.flow.run(
            context=self._flow_context(kernel, target, iterations),
            outputs=outputs,
            store=self.store,
            stats=self.stats,
        )
        rearranged: RearrangedSchedule = ctx["rearranged"]
        summary = rearranged.summary
        return MappingResult(
            kernel=kernel.name,
            architecture=target,
            dfg=ctx["dfg"],
            base_schedule=ctx["schedule"],
            schedule=rearranged.schedule,
            cycles=summary.cycles,
            stall_cycles=summary.stall_cycles,
            base_cycles=summary.base_cycles,
            context=ctx["context"] if self.generate_contexts else None,
        )
