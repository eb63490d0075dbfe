"""Wave evaluation — the engine's candidate hot path.

:meth:`~repro.core.exploration.RSPDesignSpaceExplorer.evaluate` is the
oracle: per candidate it runs the Eq. 2 cost model, the timing model and
the RS/RP stall walk of every kernel profile.  :class:`BatchEvaluator`
evaluates a whole *wave* of candidates with the same cost and timing
calls, so every area and period equals the oracle's by construction, and
answers the stalls from one :class:`~repro.core.stalls._ProfileTable` per
profile instead of walking the profile again:

* **RS stalls depend only on the ``(rows_shared, cols_shared)`` pair**
  for a given profile — the standard 253-candidate grid has at most 64
  distinct pairs — so the table memoises them per pair: the cycle walk
  runs once per *distinct capacity*, not per candidate, and most
  capacities are resolved without walking at all (see
  :meth:`~repro.core.stalls._ProfileTable.rs_stalls`).
* **RP stalls are a per-profile ``runs`` constant times ``stages - 1``.**

The property suite (``tests/properties/test_batch_equivalence.py``) pins
``batch ≡ scalar`` over random profiles × random parameter grids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.arch.array import ArraySpec
from repro.arch.template import default_array_spec
from repro.core.cost_model import HardwareCostModel
from repro.core.exploration import DesignPointEvaluation
from repro.core.rsp_params import RSPParameters
from repro.core.stalls import ScheduleProfile, StallEstimate, _ProfileTable
from repro.core.timing_model import TimingModel
from repro.errors import ExplorationError


class BatchEvaluator:
    """Wave counterpart of ``RSPDesignSpaceExplorer.evaluate``.

    Construct one per explorer (the engine builds it at the first wave
    that needs an evaluation); profile tables are computed once and
    shared by every wave the evaluator processes.
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
        self.array = array or default_array_spec()
        self.cost_model = cost_model or HardwareCostModel()
        self.timing_model = timing_model or TimingModel()
        self.tables: List[_ProfileTable] = [
            _ProfileTable(key, profile) for key, profile in profiles.items()
        ]

    def evaluate(
        self,
        parameters: Sequence[RSPParameters],
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> List[DesignPointEvaluation]:
        """Evaluate one wave; ``names`` are the architectures' names, if any.

        The results are indistinguishable from the scalar path's output —
        same architecture specs, same floats, same stall dictionaries.
        """
        if names is None:
            names = [None] * len(parameters)
        evaluations: List[DesignPointEvaluation] = []
        for candidate, name in zip(parameters, names):
            architecture = candidate.to_architecture(self.array, name=name)
            sharing = architecture.uses_sharing
            rows_shared = architecture.sharing.rows_shared
            cols_shared = architecture.sharing.cols_shared
            fill_stages = (
                architecture.pipelining.stages - 1 if architecture.uses_pipelining else 0
            )
            estimates = {
                table.key: StallEstimate(
                    kernel=table.kernel,
                    architecture=architecture.name,
                    rs_stalls=table.rs_stalls(rows_shared, cols_shared) if sharing else 0,
                    rp_stalls=table.rp_runs * fill_stages,
                    base_cycles=table.length,
                )
                for table in self.tables
            }
            evaluations.append(
                DesignPointEvaluation(
                    parameters=candidate,
                    architecture=architecture,
                    area_slices=self.cost_model.array_area(architecture),
                    critical_path_ns=self.timing_model.critical_path_ns(architecture),
                    stall_estimates=estimates,
                )
            )
        return evaluations
