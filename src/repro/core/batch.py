"""Wave evaluation — the engine's candidate hot path.

:meth:`~repro.core.exploration.RSPDesignSpaceExplorer.evaluate` is the
oracle: per candidate it runs the Eq. 2 cost model, the timing model and
the RS/RP stall walk of every kernel profile.  :class:`BatchEvaluator`
evaluates a whole *wave* of candidates with the same cost and timing
calls, so every area and period equals the oracle's by construction, and
answers the stalls from one :class:`~repro.core.stalls._ProfileTable` per
profile instead of walking the profile again.  Each fact is computed once
for as long as its inputs live:

* **A design's price depends only on the design and the two models.**
  :func:`price_design` memoises its spec, area and period per
  (cost model, timing model) pair, so a campaign whose suites share one
  pair prices each design once, and the early-reject bound reads the
  same price.
* **A table depends only on its profile** and is kept with it
  (:meth:`~repro.core.stalls._ProfileTable.of`), so suites that share a
  kernel share its table.
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

from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.arch.array import ArraySpec
from repro.arch.template import ArchitectureSpec, default_array_spec
from repro.core.cost_model import HardwareCostModel
from repro.core.exploration import DesignPointEvaluation
from repro.core.rsp_params import RSPParameters
from repro.core.stalls import ScheduleProfile, StallEstimate, _ProfileTable
from repro.core.timing_model import TimingModel
from repro.errors import ExplorationError

#: A priced design: its spec, Eq. 2 area (slices) and clock period (ns).
DesignPrice = Tuple[ArchitectureSpec, float, float]

#: Prices by cost model, then timing model, then ``(array, parameters,
#: name)``.  Weak keys: the prices of a model pair go with either model.
_PRICES: "WeakKeyDictionary[HardwareCostModel, WeakKeyDictionary]" = WeakKeyDictionary()


def price_design(
    parameters: RSPParameters,
    name: Optional[str],
    array: ArraySpec,
    cost_model: HardwareCostModel,
    timing_model: TimingModel,
) -> DesignPrice:
    """The spec, area and period of one design, computed once per model pair.

    The same calls as the scalar oracle, so the numbers are equal; only
    repeats are served from the memo.
    """
    by_timing = _PRICES.get(cost_model)
    if by_timing is None:
        by_timing = _PRICES[cost_model] = WeakKeyDictionary()
    prices: Optional[Dict[tuple, DesignPrice]] = by_timing.get(timing_model)
    if prices is None:
        prices = by_timing[timing_model] = {}
    key = (array, parameters, name)
    price = prices.get(key)
    if price is None:
        architecture = parameters.to_architecture(array, name=name)
        price = prices[key] = (
            architecture,
            cost_model.array_area(architecture),
            timing_model.critical_path_ns(architecture),
        )
    return price


class BatchEvaluator:
    """Wave counterpart of ``RSPDesignSpaceExplorer.evaluate``.

    Construct one per explorer (the engine builds it at the first wave
    that needs an evaluation).  Prices and profile tables outlive it:
    evaluators that share a model pair or a profile share them.
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
        self.tables: List[Tuple[str, _ProfileTable]] = [
            (key, _ProfileTable.of(profile)) for key, profile in profiles.items()
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
            architecture, area, period = price_design(
                candidate, name, self.array, self.cost_model, self.timing_model
            )
            sharing = architecture.uses_sharing
            rows_shared = architecture.sharing.rows_shared
            cols_shared = architecture.sharing.cols_shared
            fill_stages = (
                architecture.pipelining.stages - 1 if architecture.uses_pipelining else 0
            )
            estimates = {
                key: StallEstimate(
                    kernel=table.kernel,
                    architecture=architecture.name,
                    rs_stalls=table.rs_stalls(rows_shared, cols_shared) if sharing else 0,
                    rp_stalls=table.rp_runs * fill_stages,
                    base_cycles=table.length,
                )
                for key, table in self.tables
            }
            evaluations.append(
                DesignPointEvaluation(
                    parameters=candidate,
                    architecture=architecture,
                    area_slices=area,
                    critical_path_ns=period,
                    stall_estimates=estimates,
                )
            )
        return evaluations
