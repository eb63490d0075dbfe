"""Upper-bound stall estimation for RSP design-space exploration.

"The mapping and evaluation of all the candidate RSP designs are
time-consuming.  Therefore, in the RSP exploration stage, we use the upper
bound for the performance estimation" (paper Section 4).  Two stall kinds
are counted on the *initial* (base-architecture) configuration context:

* **RS stalls** — in every cycle the number of operations destined for the
  critical resource is compared with the number of reachable shared
  resources; overflowing operations (those of later loop iterations) are
  pushed to the next cycle, and every push of the frontier costs one stall
  cycle.
* **RP stalls** — operations executed on a pipelined resource take
  ``stages`` cycles, so their dependents must be delayed; consecutive
  pipelined operations overlap, removing the shared cycles.

The estimator works on a :class:`ScheduleProfile`, a lightweight summary of
the base schedule, so this module does not depend on the mapper.  The exact
cycle counts used for the paper's Tables 4/5 come from re-scheduling in
:mod:`repro.mapping`; the estimator is intentionally pessimistic (an upper
bound), which is what the exploration needs to reject under-provisioned
designs safely.

:class:`StallEstimator` walks the profile for every design and is the
oracle; :class:`_ProfileTable` holds the same two rules in memoised form
for :class:`repro.core.batch.BatchEvaluator`, so a change to either rule
is made to both here.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.arch.template import ArchitectureSpec
from repro.errors import ExplorationError


@dataclass(frozen=True)
class CriticalOpIssue:
    """One critical-resource operation issued in the base schedule.

    Attributes
    ----------
    cycle:
        Issue cycle in the base schedule.
    row / col:
        Position of the PE issuing the operation.
    iteration:
        Loop iteration the operation belongs to (RS rule: later iterations
        are the ones pushed back on conflicts).
    has_immediate_dependent:
        True when another operation consumes this result in the very next
        cycle of the base schedule (RP rule: that dependent must be
        delayed when the resource is pipelined).
    """

    cycle: int
    row: int
    col: int
    iteration: int
    has_immediate_dependent: bool = False


@dataclass(frozen=True)
class ScheduleProfile:
    """Summary of a base-architecture schedule used for stall estimation.

    Attributes
    ----------
    kernel:
        Name of the kernel the profile was extracted from.
    length:
        Schedule length of the base mapping in cycles.
    critical_issues:
        All critical-resource (multiplication) issues of the schedule.
    rows / cols:
        Array dimensions the schedule was produced for.
    """

    kernel: str
    length: int
    critical_issues: Tuple[CriticalOpIssue, ...]
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ExplorationError("schedule profile length must be positive")
        if self.rows <= 0 or self.cols <= 0:
            raise ExplorationError("schedule profile dimensions must be positive")

    def issues_by_cycle(self) -> Dict[int, List[CriticalOpIssue]]:
        """Critical issues grouped by their base-schedule cycle.

        The grouping is computed once per profile and memoized; callers
        must treat the returned mapping as read-only.
        """
        grouped = self.__dict__.get("_issues_by_cycle")
        if grouped is None:
            fresh: Dict[int, List[CriticalOpIssue]] = defaultdict(list)
            for issue in self.critical_issues:
                fresh[issue.cycle].append(issue)
            grouped = dict(fresh)
            self.__dict__["_issues_by_cycle"] = grouped
        return grouped


@dataclass(frozen=True)
class StallEstimate:
    """Result of the upper-bound stall estimation for one design point."""

    kernel: str
    architecture: str
    rs_stalls: int
    rp_stalls: int
    base_cycles: int

    @property
    def total_stalls(self) -> int:
        return self.rs_stalls + self.rp_stalls

    @property
    def estimated_cycles(self) -> int:
        """Upper-bound cycle count: base schedule plus all stalls."""
        return self.base_cycles + self.total_stalls


class StallEstimator:
    """Estimate RS and RP stalls for an RSP candidate (paper Section 4)."""

    def estimate(self, profile: ScheduleProfile, spec: ArchitectureSpec) -> StallEstimate:
        """Upper-bound stall estimate for executing ``profile`` on ``spec``."""
        rs_stalls = self.estimate_rs_stalls(profile, spec)
        rp_stalls = self.estimate_rp_stalls(profile, spec)
        return StallEstimate(
            kernel=profile.kernel,
            architecture=spec.name,
            rs_stalls=rs_stalls,
            rp_stalls=rp_stalls,
            base_cycles=profile.length,
        )

    # ------------------------------------------------------------------
    # RS stalls
    # ------------------------------------------------------------------
    def estimate_rs_stalls(self, profile: ScheduleProfile, spec: ArchitectureSpec) -> int:
        """Stall cycles caused by a shortage of shared critical resources.

        Implements the paper's first rearrangement rule: per cycle, shared
        resources are granted in loop-iteration order; overflowing
        operations move to the next cycle.  Every cycle appended beyond the
        original schedule length counts as one RS stall.
        """
        if not spec.uses_sharing:
            return 0
        issues_by_cycle = profile.issues_by_cycle()
        if not issues_by_cycle:
            return 0
        rows_capacity = spec.sharing.rows_shared
        cols_capacity = spec.sharing.cols_shared

        carried: List[CriticalOpIssue] = []
        cycle = 0
        last_cycle_with_work = max(issues_by_cycle)
        extra_cycles = 0
        # Walk cycles until both the original schedule and the carried
        # backlog are drained.
        while cycle <= last_cycle_with_work or carried:
            pending = sorted(
                carried + issues_by_cycle.get(cycle, []),
                key=lambda issue: (issue.iteration, issue.cycle, issue.row, issue.col),
            )
            carried = []
            row_free: Dict[int, int] = defaultdict(lambda: rows_capacity)
            col_free: Dict[int, int] = defaultdict(lambda: cols_capacity)
            for issue in pending:
                if row_free[issue.row] > 0:
                    row_free[issue.row] -= 1
                elif col_free[issue.col] > 0:
                    col_free[issue.col] -= 1
                else:
                    carried.append(issue)
            if cycle > last_cycle_with_work:
                extra_cycles += 1
            cycle += 1
        return extra_cycles

    # ------------------------------------------------------------------
    # RP stalls
    # ------------------------------------------------------------------
    def estimate_rp_stalls(self, profile: ScheduleProfile, spec: ArchitectureSpec) -> int:
        """Stall cycles caused by the multi-cycle latency of pipelined resources.

        Every base-schedule cycle that issues at least one critical
        operation whose result is consumed in the immediately following
        cycle forces its dependents back by ``stages - 1`` cycles.
        Consecutive such cycles overlap (the paper's "overlapped cycles
        between the operations should be removed"), so a run of consecutive
        multiplication cycles only pays the penalty once.
        """
        if not spec.uses_pipelining:
            return 0
        extra_per_occurrence = spec.pipelining.stages - 1
        cycles_with_dependents = sorted(
            {
                issue.cycle
                for issue in profile.critical_issues
                if issue.has_immediate_dependent
            }
        )
        if not cycles_with_dependents:
            return 0
        # Collapse consecutive runs: each run pays the pipeline fill once.
        runs = 1
        for previous, current in zip(cycles_with_dependents, cycles_with_dependents[1:]):
            if current != previous + 1:
                runs += 1
        return runs * extra_per_occurrence


class _ProfileTable:
    """Precomputed stall structure of one :class:`ScheduleProfile`.

    Holds everything the RS/RP estimators derive from the profile alone:

    * the per-cycle critical issues, pre-sorted by the walk's grant key
      ``(iteration, cycle, row, col)``;
    * ``max_row_count`` / ``max_col_count`` — the largest number of
      issues sharing a ``(cycle, row)`` / ``(cycle, col)`` slot, which
      bound the capacities that can ever cause a stall;
    * the RP ``runs`` constant (consecutive dependent-cycle runs);
    * a memo of RS stall counts per ``(rows_shared, cols_shared)`` pair.

    :meth:`of` keeps one table per profile object, so every evaluator
    over that profile (one per suite of a campaign) shares its walks.
    """

    __slots__ = (
        "kernel",
        "length",
        "by_cycle",
        "last_cycle",
        "max_row_count",
        "max_col_count",
        "rp_runs",
        "_rs_memo",
    )

    @classmethod
    def of(cls, profile: ScheduleProfile) -> "_ProfileTable":
        """The table of ``profile``, built on first use and kept with it.

        It lives in the instance ``__dict__``, like
        :meth:`ScheduleProfile.issues_by_cycle`.  The mapping pipeline
        stores a profile when it extracts it, before any evaluator reads
        it, so stored profiles carry no table.
        """
        table = profile.__dict__.get("_table")
        if table is None:
            table = profile.__dict__["_table"] = cls(profile)
        return table

    def __init__(self, profile: ScheduleProfile) -> None:
        self.kernel = profile.kernel
        self.length = profile.length
        by_cycle: Dict[int, List[Tuple[int, int, int, int]]] = {}
        row_counts: Dict[Tuple[int, int], int] = {}
        col_counts: Dict[Tuple[int, int], int] = {}
        for issue in profile.critical_issues:
            entry = (issue.iteration, issue.cycle, issue.row, issue.col)
            by_cycle.setdefault(issue.cycle, []).append(entry)
            row_key = (issue.cycle, issue.row)
            col_key = (issue.cycle, issue.col)
            row_counts[row_key] = row_counts.get(row_key, 0) + 1
            col_counts[col_key] = col_counts.get(col_key, 0) + 1
        for entries in by_cycle.values():
            entries.sort()
        self.by_cycle = by_cycle
        self.last_cycle = max(by_cycle) if by_cycle else -1
        self.max_row_count = max(row_counts.values()) if row_counts else 0
        self.max_col_count = max(col_counts.values()) if col_counts else 0
        self.rp_runs = self._dependent_runs(profile)
        self._rs_memo: Dict[Tuple[int, int], int] = {}

    @staticmethod
    def _dependent_runs(profile: ScheduleProfile) -> int:
        """Runs of consecutive cycles issuing immediately-consumed results.

        Mirrors :meth:`StallEstimator.estimate_rp_stalls`: RP stalls are
        ``runs * (stages - 1)``, and ``runs`` is a pure profile property.
        """
        cycles = sorted(
            {
                issue.cycle
                for issue in profile.critical_issues
                if issue.has_immediate_dependent
            }
        )
        if not cycles:
            return 0
        runs = 1
        for previous, current in zip(cycles, cycles[1:]):
            if current != previous + 1:
                runs += 1
        return runs

    def rs_stalls(self, rows_capacity: int, cols_capacity: int) -> int:
        """RS stalls for one capacity pair (memoized; walk only when needed).

        Capacities at or above the profile's densest ``(cycle, row)`` /
        ``(cycle, col)`` slot can never overflow: every cycle's fresh
        issues are granted outright, nothing is ever carried, so the walk
        would trivially count zero.  Only the small-capacity corner of
        the grid pays for an actual cycle-walk — and that walk is a merge
        of two pre-sorted lists instead of a per-cycle ``sorted()`` call.
        """
        if not self.by_cycle:
            return 0
        if rows_capacity >= self.max_row_count or cols_capacity >= self.max_col_count:
            return 0
        key = (rows_capacity, cols_capacity)
        stalls = self._rs_memo.get(key)
        if stalls is None:
            stalls = self._walk(rows_capacity, cols_capacity)
            self._rs_memo[key] = stalls
        return stalls

    def _walk(self, rows_capacity: int, cols_capacity: int) -> int:
        """The scalar grant walk of :meth:`StallEstimator.estimate_rs_stalls`.

        Semantically identical to the estimator's loop: per cycle the
        carried backlog and the fresh issues are ordered by ``(iteration,
        cycle, row, col)`` — ``sorted()`` is stable, so carried entries
        precede fresh ones on key ties, which the ``<=`` merge below
        preserves — then row capacity is granted before column capacity
        and overflowing issues carry to the next cycle.  Every cycle past
        the original schedule end costs one stall.
        """
        by_cycle = self.by_cycle
        last_cycle = self.last_cycle
        carried: List[Tuple[int, int, int, int]] = []
        cycle = 0
        extra_cycles = 0
        while cycle <= last_cycle or carried:
            fresh = by_cycle.get(cycle)
            if carried and fresh:
                pending: List[Tuple[int, int, int, int]] = []
                i = j = 0
                left, right = len(carried), len(fresh)
                while i < left and j < right:
                    if carried[i] <= fresh[j]:
                        pending.append(carried[i])
                        i += 1
                    else:
                        pending.append(fresh[j])
                        j += 1
                pending.extend(carried[i:])
                pending.extend(fresh[j:])
            else:
                pending = carried if carried else (fresh or [])
            carried = []
            row_free: Dict[int, int] = {}
            col_free: Dict[int, int] = {}
            for entry in pending:
                row, col = entry[2], entry[3]
                free = row_free.get(row, rows_capacity)
                if free > 0:
                    row_free[row] = free - 1
                    continue
                free = col_free.get(col, cols_capacity)
                if free > 0:
                    col_free[col] = free - 1
                else:
                    carried.append(entry)
            if cycle > last_cycle:
                extra_cycles += 1
            cycle += 1
        return extra_cycles
