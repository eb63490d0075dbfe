"""Persistent evaluation store — a facade over the unified storage layer.

Exploration campaigns repeatedly evaluate overlapping candidate grids:
re-running a sweep after enlarging the grid, exploring a second suite that
shares the base profiles, or simply re-issuing the same campaign.  The
cache makes every repeated evaluation free.

Layout
------
A cache directory holds one JSON-lines file per *evaluation context*
(profiles + array + model calibration, see
:func:`repro.engine.jobs.evaluation_context_hash`)::

    <cache_dir>/evals-<context_hash_prefix>.jsonl

Persistence is a :class:`repro.store.ShardedJsonlBackend`: appends go to
the file under an advisory file lock, so multiple processes can populate
one cache directory concurrently.  Each line is one completed
evaluation, keyed by the job's content hash::

    {"key": "...", "label": "rs(shr=2,...)", "area_slices": ...,
     "critical_path_ns": ..., "stalls": {kernel: {"rs_stalls": ...,
     "rp_stalls": ..., "base_cycles": ...}}}

Only derived *numbers* are stored; the architecture object is rebuilt from
the job's parameters on a hit, so the format stays small and stable.
Corrupt or truncated lines (e.g. from an interrupted run) are skipped on
load, counted in :attr:`EvaluationCache.corrupt_lines` and reported by a
:class:`RuntimeWarning`, attributed to the code that opened the file,
each time it is opened: they stay on disk until compaction
(:meth:`EvaluationCache.janitor`, ``--compact`` on the CLI) drops them.
Because keys are content hashes, a record can never be stale: any change
to the profiles, the array or the model calibration changes the context
hash and therefore the file and the keys.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Set, Union

from repro.core.exploration import DesignPointEvaluation
from repro.core.stalls import StallEstimate
from repro.engine.jobs import EvaluationJob
from repro.store import MemoryBackend, ShardedJsonlBackend, StoreJanitor, StoreStats
from repro.utils.callers import caller_stacklevel


@dataclass
class CacheStats:
    """Hit/miss counters of one engine run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


def _valid_record(record: dict) -> bool:
    """The fields :meth:`EvaluationCache.get` rehydrates must be present."""
    try:
        float(record["area_slices"])
        float(record["critical_path_ns"])
        record["stalls"]
    except (ValueError, KeyError, TypeError):
        return False
    return True


def evaluation_record(evaluation: DesignPointEvaluation) -> dict:
    """The flat JSON record of one evaluation (the cache's line format)."""
    return {
        "label": evaluation.architecture.name,
        "area_slices": evaluation.area_slices,
        "critical_path_ns": evaluation.critical_path_ns,
        "stalls": {
            kernel: {
                "rs_stalls": estimate.rs_stalls,
                "rp_stalls": estimate.rp_stalls,
                "base_cycles": estimate.base_cycles,
            }
            for kernel, estimate in evaluation.stall_estimates.items()
        },
    }


def rehydrate_evaluation(record: dict, job: EvaluationJob, array) -> DesignPointEvaluation:
    """Rebuild a :class:`DesignPointEvaluation` from its flat JSON record.

    The architecture is reconstructed from the job's parameters (cheap and
    deterministic); only the derived numbers come from the record, so a
    rehydrated evaluation is numerically identical to the computed one.
    """
    architecture = job.parameters.to_architecture(array, name=job.name)
    stall_estimates = {
        kernel: StallEstimate(
            kernel=kernel,
            architecture=architecture.name,
            rs_stalls=int(entry["rs_stalls"]),
            rp_stalls=int(entry["rp_stalls"]),
            base_cycles=int(entry["base_cycles"]),
        )
        for kernel, entry in record["stalls"].items()
    }
    return DesignPointEvaluation(
        parameters=job.parameters,
        architecture=architecture,
        area_slices=float(record["area_slices"]),
        critical_path_ns=float(record["critical_path_ns"]),
        stall_estimates=stall_estimates,
    )


class EvaluationCache:
    """A keyed store of completed design-point evaluations.

    Records live in the empty namespace of their backend.

    Parameters
    ----------
    path:
        JSON-lines file backing the cache.  ``None`` keeps the cache
        purely in memory (useful for tests and one-shot runs).
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.stats = CacheStats()
        #: Records this cache has seen (prefetched, fetched or stored):
        #: repeat lookups never go back to the backend.
        self._front: Dict[str, dict] = {}
        #: Keys a batch prefetch proved absent; consulted before the
        #: backend so a wave's misses need no further lookup.
        self._known_misses: Set[str] = set()
        if self.path is None:
            self.backend = MemoryBackend()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.backend = ShardedJsonlBackend(self.path, validate=_valid_record)
        if self.corrupt_lines:
            warnings.warn(
                f"evaluation cache {self.path}: skipped {self.corrupt_lines} "
                "corrupt line(s); their evaluations are recomputed, and the "
                "lines stay in the file until it is compacted (--compact, or "
                "EvaluationCache.janitor().sweep(compact=True))",
                RuntimeWarning,
                # The line that opened the cache, whether it called
                # EvaluationCache or EvaluationCache.for_context.
                stacklevel=caller_stacklevel(__name__),
            )

    @classmethod
    def for_context(cls, cache_dir: Path, context_hash: str) -> "EvaluationCache":
        """The cache file of one evaluation context inside ``cache_dir``."""
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        return cls(cache_dir / f"evals-{context_hash[:16]}.jsonl")

    @property
    def corrupt_lines(self) -> int:
        """Corrupt/foreign lines skipped while loading the cache file."""
        return getattr(self.backend, "corrupt_lines", 0)

    def __len__(self) -> int:
        # Both cache backends hold their records in memory; no disk walk.
        return len(self.backend)  # type: ignore[arg-type]

    def __contains__(self, key: str) -> bool:
        return key in self._front or self.backend.contains("", key)

    # ------------------------------------------------------------------
    # Store / lookup
    # ------------------------------------------------------------------
    _record_of = staticmethod(evaluation_record)

    def put(self, key: str, evaluation: DesignPointEvaluation) -> None:
        """Record ``evaluation`` under ``key`` and append it to the store."""
        if key in self._front or self.backend.contains("", key):
            return
        record = self._record_of(evaluation)
        self.backend.put("", key, record)
        self._front[key] = record
        self._known_misses.discard(key)
        self.stats.stores += 1

    def put_many(self, evaluations: Mapping[str, DesignPointEvaluation]) -> int:
        """Batch :meth:`put`: one backend ``put_many`` for a whole wave.

        On the JSONL backend that is one locked append per wave.  Keys
        already seen by this cache are skipped; the backend deduplicates
        anything another process stored meanwhile.
        """
        fresh = {
            key: self._record_of(evaluation)
            for key, evaluation in evaluations.items()
            if key not in self._front
        }
        if not fresh:
            return 0
        self.backend.put_many("", fresh)
        self._front.update(fresh)
        self._known_misses.difference_update(fresh)
        self.stats.stores += len(fresh)
        return len(fresh)

    def prefetch(self, keys: Iterable[str]) -> int:
        """Batch-resolve ``keys`` ahead of per-key :meth:`get` calls.

        One backend ``get_many`` warms the in-process front; subsequent
        :meth:`get` calls for these keys — hits *and* misses — are then
        answered without touching the backend again.  Returns the number
        of records fetched.
        """
        wanted = [
            key for key in keys if key not in self._front and key not in self._known_misses
        ]
        if not wanted:
            return 0
        found = {
            key: record
            for key, record in self.backend.get_many("", wanted).items()
            if _valid_record(record)
        }
        self._front.update(found)
        self._known_misses.update(key for key in wanted if key not in found)
        return len(found)

    def get(self, key: str, job: EvaluationJob, array) -> Optional[DesignPointEvaluation]:
        """Rehydrate the evaluation stored under ``key``, or ``None`` on a miss.

        The architecture is rebuilt from the job's parameters (cheap and
        deterministic), then populated with the cached numbers.
        """
        record = self._front.get(key)
        if record is None:
            if key in self._known_misses:
                self.stats.misses += 1
                return None
            hit, record = self.backend.get("", key)
            if not hit or not _valid_record(record):
                self.stats.misses += 1
                return None
            self._front[key] = record
        self.stats.hits += 1
        return rehydrate_evaluation(record, job, array)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def janitor(self, max_age_seconds: Optional[float] = None) -> StoreJanitor:
        """A GC/compaction janitor over this cache's backend."""
        return StoreJanitor(self.backend, max_age_seconds=max_age_seconds)

    def store_stats(self) -> StoreStats:
        """Snapshot of the backing store (entries, disk usage)."""
        return self.backend.stats()
