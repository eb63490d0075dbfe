"""Persistent, content-addressed store for pipeline stage artifacts.

The evaluation cache (:mod:`repro.engine.cache`) memoises *numbers* — the
derived metrics of a design-point evaluation.  The artifact store is its
sibling for *structures*: the per-stage products of the mapping pipeline
(base schedules, schedule profiles, rearranged schedules, configuration
contexts) that are expensive to recompute but deterministic functions of
their inputs.

Layout
------
The store shares the evaluation cache's directory layout: pointing both at
the same ``cache_dir`` gives one self-contained exploration cache on disk::

    <cache_dir>/evals-<context_hash>.jsonl          (evaluation cache)
    <cache_dir>/artifacts/<stage>/<key>.pkl         (artifact store)

Persistence is a :class:`repro.store.PickleDirBackend`: write-then-rename
pickles under advisory file locks, so many processes can populate one
directory.  Each artifact file is the pickled stage output, addressed by
the stage name and the SHA-256 *input* hash computed by the pipeline
(:func:`repro.mapping.pipeline.stage_key`).  Because keys are content
hashes over the full upstream input chain, a record can never be stale:
any change to the kernel DFG, the architecture or an upstream stage
changes the key.  A file that does not unpickle (truncated by an
interrupted run, or overwritten) is treated as a miss, counted in
:attr:`ArtifactStoreStats.corrupt` and reported via a
:class:`RuntimeWarning` that names the code which asked for the mapping
(the first caller outside this module, the stage executor in
:mod:`repro.flowgraph` and :mod:`repro.mapping`); the next store
overwrites it and a janitor compaction removes it.

An in-memory layer fronts the disk so a value is unpickled at most once
per process; with no root directory the store is purely in-memory, which
is what gives :class:`~repro.mapping.pipeline.MappingPipeline` (and the
:class:`~repro.mapping.mapper.RSPMapper` facade over it) the seed's
within-run memoisation behaviour for free.

The store also holds the mapping stages' in-process memos (built DFGs,
re-timing plans, stall-free lengths), so every pipeline on one store
computes each of them once.  They are plain dictionaries beside the
artifacts: never persisted, and never counted in :attr:`ArtifactStore.stats`
or ``len(store)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.store import PickleDirBackend, StoreJanitor, StoreStats
from repro.store.pickledir import DEFAULT_KEY_PREFIX_LENGTH
from repro.utils.callers import caller_stacklevel

#: Length of the key prefix used in artifact file names.  32 hex digits
#: (128 bits) keeps paths short while making collisions implausible.
KEY_PREFIX_LENGTH = DEFAULT_KEY_PREFIX_LENGTH

#: Subdirectory of the shared cache directory holding artifact files.
ARTIFACT_SUBDIR = "artifacts"


@dataclass
class ArtifactStoreStats:
    """Hit/miss counters of one artifact store, total and per stage."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    by_stage: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def record(self, stage: str, event: str) -> None:
        """Bump the ``event`` counter (``"hits"``/``"misses"``/``"stores"``)."""
        setattr(self, event, getattr(self, event) + 1)
        counters = self.by_stage.setdefault(stage, {"hits": 0, "misses": 0, "stores": 0})
        counters[event] += 1


class ArtifactStore:
    """A keyed store of pipeline stage outputs.

    Parameters
    ----------
    root:
        Cache directory shared with :class:`~repro.engine.cache.EvaluationCache`;
        artifacts live under ``<root>/artifacts/``, one namespace directory
        per stage.  ``None`` keeps the store purely in memory.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else None
        self.stats = ArtifactStoreStats()
        self._memory: Dict[Tuple[str, str], Any] = {}
        #: ``build_dfg`` artifacts by kernel definition
        #: (:func:`~repro.mapping.fingerprints.kernel_definition`), each
        #: with the kernel it was built from.
        self.dfgs: Dict[Any, Tuple[Any, Any]] = {}
        #: Re-timing plans of the ``rearrange`` stage by base-schedule key.
        self.retiming_plans: Dict[str, Any] = {}
        #: Stall-free rearranged lengths by (base-schedule key, array,
        #: multiplier latency, uses sharing): everything the
        #: unlimited-shared pass of the ``rearrange`` stage reads.
        self.stall_free_lengths: Dict[Tuple[Any, ...], int] = {}
        self.backend: Optional[PickleDirBackend] = None
        if self.root is not None:
            self.backend = PickleDirBackend(self.root / ARTIFACT_SUBDIR)

    @property
    def persistent(self) -> bool:
        return self.backend is not None

    @property
    def directory(self) -> Optional[Path]:
        """On-disk artifact directory (``None`` for an in-memory store)."""
        if self.root is None:
            return None
        return self.root / ARTIFACT_SUBDIR

    def __len__(self) -> int:
        return len(self._memory)

    def contains(self, stage: str, key: str) -> bool:
        """True when the artifact is available without recomputation."""
        if (stage, key) in self._memory:
            return True
        return self.backend is not None and self.backend.contains(stage, key)

    # ------------------------------------------------------------------
    # Fetch / store
    # ------------------------------------------------------------------
    def fetch(self, stage: str, key: str) -> Tuple[bool, Any]:
        """Look up the artifact of ``(stage, key)``.

        Returns ``(True, value)`` on a hit and ``(False, None)`` on a miss
        (so ``None`` remains a storable value).  Disk hits populate the
        in-memory layer, making repeated fetches return the same object.
        Corrupt files count as misses, bump :attr:`ArtifactStoreStats.corrupt`
        and raise a :class:`RuntimeWarning` naming the artifact.
        """
        memory_key = (stage, key)
        if memory_key in self._memory:
            self.stats.record(stage, "hits")
            return True, self._memory[memory_key]
        if self.backend is not None:
            corrupt_before = self.backend.counters.corrupt
            hit, value = self.backend.get(stage, key)
            corrupt_delta = self.backend.counters.corrupt - corrupt_before
            if corrupt_delta:
                self.stats.corrupt += corrupt_delta
                warnings.warn(
                    f"artifact store {self.directory}: corrupt artifact "
                    f"{stage}/{key[:KEY_PREFIX_LENGTH]} treated as a miss; "
                    "the stage will be recomputed",
                    RuntimeWarning,
                    stacklevel=caller_stacklevel(__name__, "repro.flowgraph", "repro.mapping"),
                )
            if hit:
                self._memory[memory_key] = value
                self.stats.record(stage, "hits")
                return True, value
        self.stats.record(stage, "misses")
        return False, None

    def put(self, stage: str, key: str, value: Any) -> None:
        """Record ``value`` under ``(stage, key)``, persisting when backed."""
        self._memory[(stage, key)] = value
        self.stats.record(stage, "stores")
        if self.backend is not None:
            self.backend.put(stage, key, value)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def janitor(self, max_age_seconds: Optional[float] = None) -> StoreJanitor:
        """A GC/compaction janitor over the persistent backend."""
        if self.backend is None:
            raise ValueError("an in-memory artifact store has nothing to garbage-collect")
        return StoreJanitor(self.backend, max_age_seconds=max_age_seconds)

    def store_stats(self) -> StoreStats:
        """Snapshot of the backing store (entries, disk usage)."""
        if self.backend is not None:
            return self.backend.stats()
        return StoreStats(
            backend="memory",
            entries=len(self._memory),
            hits=self.stats.hits,
            misses=self.stats.misses,
            stores=self.stats.stores,
            corrupt=self.stats.corrupt,
        )
