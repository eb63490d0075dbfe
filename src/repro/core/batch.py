"""Vectorized wave evaluation — the engine's candidate hot path in numpy.

Cold-campaign throughput is bounded by per-candidate Python evaluation:
:meth:`~repro.core.exploration.RSPDesignSpaceExplorer.evaluate` walks the
Eq. 2 cost model, the timing model and the RS/RP stall estimator one
object at a time.  This module evaluates a whole *wave* of candidates as
array operations over a candidate-parameter matrix instead:

* :class:`BatchEvaluator.encode` turns a sequence of
  :class:`~repro.core.rsp_params.RSPParameters` into column arrays
  (``shr``, ``shc``, effective ``stages``, sharing/pipelining masks plus
  per-candidate component lookups);
* :meth:`BatchEvaluator.compute` produces area, critical-path period,
  per-kernel RS/RP stalls, total cycles and total execution time in a
  handful of numpy passes;
* :meth:`BatchEvaluator.evaluate` materializes
  :class:`~repro.core.exploration.DesignPointEvaluation` objects.

Two structural facts make this fast without changing any semantics:

1. **Eq. 2 and the timing model are closed-form** in the parameter
   columns, so they vectorize directly.  Every arithmetic operation is
   performed in the same order as the scalar models
   (:mod:`repro.core.cost_model`, :mod:`repro.core.timing_model`), and
   component lookups (including the bus-switch extrapolation beyond the
   calibrated port counts) go through the same
   :class:`~repro.arch.components.ComponentLibrary` calls — IEEE-754
   float64 arithmetic is deterministic, so the results are *bit
   identical* to the scalar path, not merely close.
2. **RS stalls depend only on the ``(rows_shared, cols_shared)`` pair**
   for a given profile — the standard 253-candidate grid has at most 64
   distinct pairs — so each profile keeps a per-capacity stall table:
   the cycle-walk runs once per *distinct capacity*, not per candidate,
   and most capacities are resolved without walking at all (see
   :meth:`_ProfileTable.rs_stalls`).  RP stalls reduce to a per-profile
   ``runs`` constant times a ``(stages - 1)`` column.

The scalar models remain the *oracle*: the property suite
(``tests/properties/test_batch_equivalence.py``) pins ``vectorized ≡
scalar`` over random profiles × random parameter grids.  The engine
imports this module lazily (see
:meth:`repro.engine.executor.EvaluationEngine.batch_evaluator`), so
importing the engine does not import numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.array import ArraySpec
from repro.core.cost_model import HardwareCostModel
from repro.core.exploration import DesignPointEvaluation
from repro.core.rsp_params import RSPParameters
from repro.core.stalls import ScheduleProfile, StallEstimate
from repro.core.timing_model import TimingModel
from repro.errors import ExplorationError


# ----------------------------------------------------------------------
# Per-profile stall tables
# ----------------------------------------------------------------------
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
    """

    __slots__ = (
        "key",
        "kernel",
        "length",
        "by_cycle",
        "last_cycle",
        "max_row_count",
        "max_col_count",
        "rp_runs",
        "_rs_memo",
    )

    def __init__(self, key: str, profile: ScheduleProfile) -> None:
        self.key = key
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


# ----------------------------------------------------------------------
# Encoded wave columns and computed batch results
# ----------------------------------------------------------------------
@dataclass
class WaveColumns:
    """A wave of candidates as column arrays (one entry per candidate)."""

    parameters: List[RSPParameters]
    #: int64 parameter columns.
    shr: Any
    shc: Any
    #: Effective stage count (``pipeline_stages`` when pipelining is in
    #: use, 1 otherwise — mirroring ``RSPParameters.to_architecture``).
    stages: Any
    #: Boolean masks.
    sharing: Any
    pipelined: Any
    #: Per-candidate component lookups (float64): the shared resource's
    #: area/delay and the port-matched bus switch's area/delay (0 when
    #: the candidate has no switch ports).
    resource_area: Any
    resource_delay: Any
    switch_area: Any
    switch_delay: Any
    #: ``kind`` strings, as classified by :class:`RSPParameters`.
    kind: List[str]
    #: Distinct ``(rows_shared, cols_shared)`` pairs of the sharing
    #: candidates, plus each candidate's index into that pair list
    #: (meaningful only where ``sharing`` is set).
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    pair_index: Any = None

    def __len__(self) -> int:
        return len(self.parameters)


@dataclass
class BatchEvaluation:
    """Vectorized evaluation results for one encoded wave.

    All arrays are indexed by candidate position; ``rs_stalls`` and
    ``rp_stalls`` are ``(kernels, candidates)`` matrices in the
    explorer's profile order.
    """

    columns: WaveColumns
    #: Eq. 2 array area per candidate (float64 slices).
    area_slices: Any
    #: Critical-path period per candidate (float64 ns).
    critical_path_ns: Any
    #: Per-kernel stall matrices (int64).
    rs_stalls: Any
    rp_stalls: Any
    #: Domain totals per candidate.
    total_cycles: Any
    total_stalls: Any
    total_execution_time_ns: Any

    def __len__(self) -> int:
        return len(self.columns)


class BatchEvaluator:
    """Vectorized counterpart of ``RSPDesignSpaceExplorer.evaluate``.

    Construct one per explorer (the engine builds it lazily per run);
    profile tables are computed once and shared by every wave the
    evaluator processes.
    """

    def __init__(
        self,
        profiles: Dict[str, ScheduleProfile],
        array: Optional[ArraySpec] = None,
        cost_model: Optional[HardwareCostModel] = None,
        timing_model: Optional[TimingModel] = None,
    ) -> None:
        if not profiles:
            raise ExplorationError("batch evaluation requires at least one kernel profile")
        from repro.arch.template import default_array_spec

        self.array = array or default_array_spec()
        self.cost_model = cost_model or HardwareCostModel()
        self.timing_model = timing_model or TimingModel()
        self.tables: List[_ProfileTable] = [
            _ProfileTable(key, profile) for key, profile in profiles.items()
        ]
        library = self.cost_model.library
        # Scalar constants, computed through the exact scalar-model calls
        # so every float matches the per-candidate path bit for bit.
        self._full_pe_area = self.cost_model.full_pe_area()
        self._register_area = library.pipeline_register.area_slices
        self._pipe_register_delay = self.timing_model.library.pipeline_register.delay_ns
        self._full_pe_path = self.timing_model.full_pe_path_ns()
        self._primitive_path = self.timing_model.primitive_pe_path_ns()
        self._mux_delay = self.timing_model.library.multiplexer.delay_ns
        self._shifter_delay = self.timing_model.library.shifter.delay_ns
        self._margin = self.timing_model.wiring_margin_ns
        self._resource_memo: Dict[str, Tuple[float, float]] = {}
        self._switch_memo: Dict[int, Tuple[float, float]] = {0: (0.0, 0.0)}

    # ------------------------------------------------------------------
    # Component lookups (memoized per distinct name / port count)
    # ------------------------------------------------------------------
    def _resource(self, name: str) -> Tuple[float, float]:
        entry = self._resource_memo.get(name)
        if entry is None:
            component = self.cost_model.library.get(name)
            timing = self.timing_model.library.get(name)
            entry = (component.area_slices, timing.delay_ns)
            self._resource_memo[name] = entry
        return entry

    def _switch(self, ports: int) -> Tuple[float, float]:
        entry = self._switch_memo.get(ports)
        if entry is None:
            # The library call covers both the calibrated 1..4-port
            # switches and the linear extrapolation beyond them.
            area = self.cost_model.library.bus_switch(ports).area_slices
            delay = self.timing_model.library.bus_switch(ports).delay_ns
            entry = (area, delay)
            self._switch_memo[ports] = entry
        return entry

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, parameters: Sequence[RSPParameters]) -> WaveColumns:
        """Encode a wave of candidates into column arrays."""
        count = len(parameters)
        shr = np.empty(count, dtype=np.int64)
        shc = np.empty(count, dtype=np.int64)
        stages = np.empty(count, dtype=np.int64)
        sharing = np.empty(count, dtype=bool)
        pipelined = np.empty(count, dtype=bool)
        resource_area = np.empty(count, dtype=np.float64)
        resource_delay = np.empty(count, dtype=np.float64)
        switch_area = np.empty(count, dtype=np.float64)
        switch_delay = np.empty(count, dtype=np.float64)
        kind: List[str] = []
        pairs: List[Tuple[int, int]] = []
        pair_positions: Dict[Tuple[int, int], int] = {}
        pair_index = np.zeros(count, dtype=np.intp)
        for position, candidate in enumerate(parameters):
            uses_sharing = candidate.uses_sharing
            uses_pipelining = candidate.uses_pipelining
            shr[position] = candidate.rows_shared
            shc[position] = candidate.cols_shared
            stages[position] = candidate.pipeline_stages if uses_pipelining else 1
            sharing[position] = uses_sharing
            pipelined[position] = uses_pipelining
            resource_name = (
                candidate.shared_resources[0]
                if candidate.shared_resources
                else "array_multiplier"
            )
            resource_area[position], resource_delay[position] = self._resource(
                resource_name
            )
            ports = candidate.rows_shared + candidate.cols_shared
            switch_area[position], switch_delay[position] = self._switch(ports)
            kind.append(candidate.kind)
            if uses_sharing:
                pair = (candidate.rows_shared, candidate.cols_shared)
                slot = pair_positions.get(pair)
                if slot is None:
                    slot = len(pairs)
                    pair_positions[pair] = slot
                    pairs.append(pair)
                pair_index[position] = slot
        return WaveColumns(
            parameters=list(parameters),
            shr=shr,
            shc=shc,
            stages=stages,
            sharing=sharing,
            pipelined=pipelined,
            resource_area=resource_area,
            resource_delay=resource_delay,
            switch_area=switch_area,
            switch_delay=switch_delay,
            kind=kind,
            pairs=pairs,
            pair_index=pair_index,
        )

    # ------------------------------------------------------------------
    # Vectorized model passes
    # ------------------------------------------------------------------
    def _area_pass(self, columns: WaveColumns) -> Any:
        """Eq. 2 in column arrays, term order matching ``HardwareCostModel``."""
        rows, cols = self.array.rows, self.array.cols
        num_pes = rows * cols
        registers = self._register_area * (columns.stages - 1)
        pe_area = np.where(
            columns.sharing,
            self._full_pe_area - columns.resource_area,
            self._full_pe_area,
        )
        register_per_pe = np.where(columns.pipelined, registers, 0.0)
        shared_unit_area = np.where(
            columns.sharing,
            columns.resource_area + np.where(columns.pipelined, registers, 0.0),
            0.0,
        )
        shared_units = rows * columns.shr + cols * columns.shc
        pe_total = num_pes * pe_area
        register_total = num_pes * register_per_pe
        switch_total = num_pes * columns.switch_area
        shared_total = shared_units * shared_unit_area
        return pe_total + register_total + switch_total + shared_total

    def _timing_pass(self, columns: WaveColumns) -> Any:
        """The four timing-model branches as masked assignments."""
        detour = 2.0 * columns.switch_delay
        stage = columns.resource_delay / columns.stages
        stage = np.where(columns.pipelined, stage + self._pipe_register_delay, stage)
        critical = np.empty(len(columns), dtype=np.float64)
        base_mask = ~columns.sharing & ~columns.pipelined
        critical[base_mask] = self._full_pe_path + self._margin
        rs_mask = columns.sharing & ~columns.pipelined
        if rs_mask.any():
            critical[rs_mask] = np.maximum(
                self._primitive_path + self._margin,
                self._full_pe_path + detour[rs_mask],
            )
        rsp_mask = columns.sharing & columns.pipelined
        if rsp_mask.any():
            critical[rsp_mask] = np.maximum(
                self._primitive_path + detour[rsp_mask],
                self._mux_delay + stage[rsp_mask] + detour[rsp_mask],
            )
        rp_mask = ~columns.sharing & columns.pipelined
        if rp_mask.any():
            critical[rp_mask] = (
                np.maximum(
                    self._primitive_path,
                    self._mux_delay + stage[rp_mask] + self._shifter_delay,
                )
                + self._margin
            )
        return critical

    def _stall_pass(self, columns: WaveColumns) -> Tuple[Any, Any]:
        """Per-kernel RS/RP stall matrices, ``(kernels, candidates)``."""
        count = len(columns)
        kernels = len(self.tables)
        rs = np.zeros((kernels, count), dtype=np.int64)
        rp = np.zeros((kernels, count), dtype=np.int64)
        fill_stages = columns.stages - 1
        for row, table in enumerate(self.tables):
            if columns.pairs and table.by_cycle:
                per_pair = np.array(
                    [table.rs_stalls(pair[0], pair[1]) for pair in columns.pairs],
                    dtype=np.int64,
                )
                rs[row] = np.where(columns.sharing, per_pair[columns.pair_index], 0)
            if table.rp_runs:
                rp[row] = np.where(columns.pipelined, table.rp_runs * fill_stages, 0)
        return rs, rp

    def compute(self, columns: WaveColumns) -> BatchEvaluation:
        """Run the area/timing/stall passes over one encoded wave."""
        area = self._area_pass(columns)
        critical = self._timing_pass(columns)
        rs, rp = self._stall_pass(columns)
        base_cycles = sum(table.length for table in self.tables)
        total_stalls = rs.sum(axis=0) + rp.sum(axis=0)
        total_cycles = base_cycles + total_stalls
        return BatchEvaluation(
            columns=columns,
            area_slices=area,
            critical_path_ns=critical,
            rs_stalls=rs,
            rp_stalls=rp,
            total_cycles=total_cycles,
            total_stalls=total_stalls,
            total_execution_time_ns=total_cycles * critical,
        )

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(
        self,
        batch: BatchEvaluation,
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> List[DesignPointEvaluation]:
        """Build ``DesignPointEvaluation`` objects from batch arrays.

        The objects are indistinguishable from the scalar path's output —
        same architecture specs, same floats, same stall dictionaries.
        """
        columns = batch.columns
        area = batch.area_slices
        critical = batch.critical_path_ns
        rs, rp = batch.rs_stalls, batch.rp_stalls
        evaluations: List[DesignPointEvaluation] = []
        for position, candidate in enumerate(columns.parameters):
            name = names[position] if names is not None else None
            architecture = candidate.to_architecture(self.array, name=name)
            estimates: Dict[str, StallEstimate] = {}
            for row, table in enumerate(self.tables):
                estimates[table.key] = StallEstimate(
                    kernel=table.kernel,
                    architecture=architecture.name,
                    rs_stalls=int(rs[row, position]),
                    rp_stalls=int(rp[row, position]),
                    base_cycles=table.length,
                )
            evaluations.append(
                DesignPointEvaluation(
                    parameters=candidate,
                    architecture=architecture,
                    area_slices=float(area[position]),
                    critical_path_ns=float(critical[position]),
                    stall_estimates=estimates,
                )
            )
        return evaluations

    def evaluate(
        self,
        parameters: Sequence[RSPParameters],
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> List[DesignPointEvaluation]:
        """Encode, compute and materialize one wave in a single call."""
        batch = self.compute(self.encode(parameters))
        return self.materialize(batch, names=names)
