"""Incremental Pareto frontiers for streaming design-space exploration.

The seed's exploration collected every feasible design first and then ran
an O(n²) all-pairs dominance scan.  This module provides the replacement
used across the code base:

* :func:`pareto_front_indices` — a one-shot front extraction that runs in
  O(n log n) for the ubiquitous two-objective (area vs. execution time)
  case via a sort-based sweep, and in O(n · |front|) for higher
  dimensions;
* :class:`ParetoFrontier` — a streaming frontier with incremental
  insertion, used by the evaluation engine to reject dominated candidates
  *while* a campaign is still running (the dominance-based early-reject
  filter) and to keep a live front without rescanning.

All objectives are minimised, matching :mod:`repro.core.pareto`.  Points
with identical objective vectors are mutually non-dominated and are all
retained, exactly like the naive scan.

The module is deliberately dependency-free (no imports from the rest of
the package) so the low-level :mod:`repro.core.pareto` helpers can build
on it without an import cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, List, Optional, Sequence, Tuple


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    no_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return no_worse and strictly_better


def _front_indices_2d(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Sort-based sweep for the two-objective case, O(n log n).

    After sorting by (x, y), a point is non-dominated iff its y equals the
    minimum y of its equal-x group and every strictly-smaller x seen so far
    has a strictly larger y.
    """
    order = sorted(range(len(vectors)), key=lambda index: (vectors[index][0], vectors[index][1]))
    keep: List[int] = []
    best_y = float("inf")
    position = 0
    while position < len(order):
        group_x = vectors[order[position]][0]
        group_end = position
        group_min_y = float("inf")
        while group_end < len(order) and vectors[order[group_end]][0] == group_x:
            group_min_y = min(group_min_y, vectors[order[group_end]][1])
            group_end += 1
        if group_min_y < best_y:
            keep.extend(
                order[index]
                for index in range(position, group_end)
                if vectors[order[index]][1] == group_min_y
            )
            best_y = group_min_y
        position = group_end
    keep.sort()
    return keep


def _front_indices_general(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Incremental front maintenance for any number of objectives.

    Each point is compared against the current front only; dominance is
    transitive, so a point dominated by *any* point is dominated by a front
    member.  Worst case O(n · |front|), typically far below O(n²).
    """
    front: List[int] = []
    for index, vector in enumerate(vectors):
        if any(_dominates(vectors[member], vector) for member in front):
            continue
        front = [member for member in front if not _dominates(vector, vectors[member])]
        front.append(index)
    front.sort()
    return front


def pareto_front_indices(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated vectors (minimisation), in input order.

    Semantically identical to the naive all-pairs scan, including duplicate
    handling (equal vectors are all kept).
    """
    if not vectors:
        return []
    width = len(vectors[0])
    if any(len(vector) != width for vector in vectors):
        raise ValueError("objective vectors must have the same length")
    if width == 2:
        return _front_indices_2d(vectors)
    return _front_indices_general(vectors)


class ParetoFrontier:
    """A Pareto frontier supporting streaming insertion (minimisation).

    For two objectives the frontier is kept sorted by the first objective,
    so the second objective is strictly decreasing across distinct first
    values; insertion and dominance queries cost O(log n) plus the number
    of newly dominated points removed.  Higher dimensions fall back to a
    linear scan over the (small) front.

    ``add`` returns ``True`` when the point joined the frontier and
    ``False`` when it was dominated by an existing member.  Equal vectors
    never dominate each other, so duplicates accumulate — matching the
    one-shot :func:`pareto_front_indices` semantics.
    """

    def __init__(self, num_objectives: int = 2) -> None:
        if num_objectives < 1:
            raise ValueError("a frontier needs at least one objective")
        self.num_objectives = num_objectives
        # 2-objective representation: entries sorted by (x, y); items kept
        # in a parallel list.  General representation: unsorted pairs.
        self._keys: List[Tuple[float, ...]] = []
        self._items: List[Any] = []

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple[Tuple[float, ...], Any]]:
        return iter(zip(self._keys, self._items))

    def items(self) -> List[Any]:
        """The frontier members, sorted by the first objective (2-obj case)."""
        return list(self._items)

    def vectors(self) -> List[Tuple[float, ...]]:
        """Objective vectors of the frontier members."""
        return list(self._keys)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def dominated(self, vector: Sequence[float]) -> bool:
        """True when ``vector`` is dominated by a current frontier member."""
        key = self._check(vector)
        if self.num_objectives != 2:
            return any(_dominates(member, key) for member in self._keys)
        if not self._keys:
            return False
        position = bisect_left(self._keys, key)
        if position == 0:
            return False
        # bisect_left guarantees keys[position - 1] < key strictly, and on
        # a frontier the closest such entry carries the minimal y over all
        # entries with (x', y') < (x, y); it dominates iff y' <= y.  An
        # exact duplicate sits *at* ``position`` and is never consulted, so
        # duplicates correctly come back non-dominated.
        left_y = self._keys[position - 1][1]
        return left_y <= key[1]

    def min_second_objective_at_or_below(self, first: float) -> float:
        """Smallest second objective over members with first objective <= ``first``.

        Returns ``inf`` when no member qualifies.  Only defined for the
        two-objective frontier; used by the early-reject filter to compare
        a candidate's execution-time lower bound against completed points.
        """
        if self.num_objectives != 2:
            raise ValueError("second-objective queries need a two-objective frontier")
        position = bisect_left(self._keys, (first, float("inf")))
        if position == 0:
            return float("inf")
        return self._keys[position - 1][1]

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def add(self, vector: Sequence[float], item: Any = None) -> bool:
        """Insert ``item`` with objective ``vector``; True when non-dominated."""
        key = self._check(vector)
        if self.num_objectives != 2:
            return self._add_general(key, item)
        if self.dominated(key):
            return False
        position = bisect_left(self._keys, key)
        # Drop members the new point dominates: they sit to the right with
        # y >= new y (skipping exact duplicates, which are never dominated).
        cursor = position
        while cursor < len(self._keys) and self._keys[cursor][1] >= key[1]:
            if self._keys[cursor] == key:
                cursor += 1
                continue
            del self._keys[cursor]
            del self._items[cursor]
        self._keys.insert(position, key)
        self._items.insert(position, item)
        return True

    def add_many(
        self, vectors: Sequence[Sequence[float]], items: Optional[Sequence[Any]] = None
    ) -> int:
        """Bulk-insert a wave of points; returns how many joined the frontier.

        Equivalent to calling :meth:`add` once per vector — dominance is
        transitive, so the final frontier is the non-dominated subset of
        the union regardless of insertion order — but computed as a
        single merge of two sorted lists plus one linear sweep instead of
        ``m`` binary insertions with element shifting.  Used by the
        evaluation engine to fold a whole wave of computed results into
        the early-reject frontier at once.
        """
        if items is not None and len(items) != len(vectors):
            raise ValueError("items must align one-to-one with vectors")
        if not vectors:
            return 0
        if self.num_objectives != 2:
            added = 0
            for position, vector in enumerate(vectors):
                item = items[position] if items is not None else None
                if self.add(vector, item):
                    added += 1
            return added
        incoming = sorted(
            (
                (self._check(vector), items[position] if items is not None else None, True)
                for position, vector in enumerate(vectors)
            ),
            key=lambda entry: entry[0],
        )
        existing = [
            (key, item, False) for key, item in zip(self._keys, self._items)
        ]
        # Merge the two sorted runs (existing entries first on key ties,
        # mirroring sequential-add behaviour for duplicates), then sweep:
        # on a (x, y)-sorted sequence a point survives iff its y strictly
        # improves the best y seen so far, or it duplicates the point
        # that set that best — the same front-with-duplicates semantics
        # as sequential insertion.
        merged: List[Tuple[Tuple[float, ...], Any, bool]] = []
        i = j = 0
        while i < len(existing) and j < len(incoming):
            if existing[i][0] <= incoming[j][0]:
                merged.append(existing[i])
                i += 1
            else:
                merged.append(incoming[j])
                j += 1
        merged.extend(existing[i:])
        merged.extend(incoming[j:])
        keys: List[Tuple[float, ...]] = []
        kept_items: List[Any] = []
        added = 0
        best_y = float("inf")
        best_key: Optional[Tuple[float, ...]] = None
        for key, item, is_new in merged:
            if key[1] < best_y:
                best_y = key[1]
                best_key = key
            elif key != best_key:
                continue
            keys.append(key)
            kept_items.append(item)
            if is_new:
                added += 1
        self._keys = keys
        self._items = kept_items
        return added

    def _add_general(self, key: Tuple[float, ...], item: Any) -> bool:
        if any(_dominates(member, key) for member in self._keys):
            return False
        survivors = [
            index for index, member in enumerate(self._keys) if not _dominates(key, member)
        ]
        if len(survivors) != len(self._keys):
            self._keys = [self._keys[index] for index in survivors]
            self._items = [self._items[index] for index in survivors]
        self._keys.append(key)
        self._items.append(item)
        return True

    def _check(self, vector: Sequence[float]) -> Tuple[float, ...]:
        key = tuple(vector)
        if len(key) != self.num_objectives:
            raise ValueError(
                f"expected {self.num_objectives} objectives, got {len(key)}"
            )
        return key
