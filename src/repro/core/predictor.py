"""The Predictor: producing the estimation matrix ``P`` (paper Fig. 1/2).

The Predictor combines a *prior* cost model (what the user or the workflow
description claims about job costs) with the Performance History Repository
(what has actually been observed) to produce the estimates the Scheduler
plans with.  With an empty history the Predictor returns the prior
unchanged — which, under the paper's accurate-estimation assumption, is the
common case in the headline experiments.

The history calibrates a multiplicative *correction factor* per resource
(:class:`RatioAdjustedCostModel`: mean of observed/estimated over that
resource's completed jobs) and the prior is scaled by it.  Absolute
durations do not transfer between the jobs of a heterogeneous population,
but systematic resource bias (obsolete benchmarks, misreported speeds)
does.  The model only transforms the prior's computation costs; it is a
:class:`~repro.scenarios.base.ScaledCostModel` snapshot of the history at
construction (:meth:`Predictor.estimate` builds one per replan), so its
dense views are memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.history import MIN_STORED_ESTIMATE, PerformanceHistoryRepository
from repro.scenarios.base import ScaledCostModel
from repro.workflow.costs import CostModel, DelegatingCostModel

__all__ = ["RatioAdjustedCostModel", "Predictor"]


class RatioAdjustedCostModel(ScaledCostModel):
    """A cost model scaling the prior by observed/estimated ratios.

    For every resource with observations, the correction factor is the
    *shrunk* mean of ``observed_duration / prior_estimate`` over that
    resource's recorded executions (jobs whose prior estimate is near zero
    are skipped): ``ratio = (Σ rᵢ + k) / (n + k)`` with ``prior_strength``
    ``k`` pseudo-observations of 1.0.  The estimate is then
    ``prior · (blend · ratio + (1 − blend) · 1)``: ``blend = 1`` applies
    the learned correction fully, ``blend = 0`` keeps the prior.
    Resources without history keep the prior unchanged, and so does every
    communication query.

    The ratios are learned once, from the history at construction: build a
    new model (as :meth:`Predictor.estimate` does) to see later records.

    Because corrections are multiplicative, the model converges to the
    exact factor for systematic per-resource bias (a machine consistently
    1.4× slower than advertised is re-estimated as 1.4× slower for *every*
    job), while the shrinkage keeps it from chasing independent zero-mean
    noise — one or two unlucky observations must not make the Planner
    abandon a perfectly good resource.
    """

    def __init__(
        self,
        prior: CostModel,
        history: PerformanceHistoryRepository,
        *,
        blend: float = 1.0,
        prior_strength: float = 2.0,
    ) -> None:
        if not 0 <= blend <= 1:
            raise ValueError("blend must be in [0, 1]")
        if prior_strength < 0:
            raise ValueError("prior_strength must be non-negative")
        DelegatingCostModel.__init__(self, prior)
        self.history = history
        self.blend = float(blend)
        self.prior_strength = float(prior_strength)
        observed = history.self_contained_ratios()
        if observed is None:
            observed = self._walk()
        # shrunk mean: prior_strength pseudo-observations of ratio 1.0
        self._ratios: Dict[str, float] = {
            rid: (float(np.sum(ratios)) + self.prior_strength)
            / (len(ratios) + self.prior_strength)
            for rid, ratios in observed.items()
        }
        # a learned ratio of 0.0 (zero-duration observations, no shrinkage)
        # prices 0.0; ScaledCostModel's positivity check is for callers
        self._set_factors(
            {
                rid: self.blend * ratio + (1.0 - self.blend)
                for rid, ratio in self._ratios.items()
                if ratio != 1.0
            }
        )

    def _walk(self) -> Dict[str, List[float]]:
        """Per resource, the ratio of every record usable against this workflow.

        The path for a history holding legacy records; on a history of
        self-contained records only it gives the repository's own lists.
        """
        workflow = self.workflow
        observed: Dict[str, List[float]] = {}
        for record in self.history.records:
            if record.estimated > MIN_STORED_ESTIMATE:
                # self-contained observation: the monitor stored the prior
                # estimate at observation time (robust across workflows)
                estimate = record.estimated
            else:
                # legacy/hand-recorded observation: divide by the current
                # workflow's estimate, but only when the record demonstrably
                # refers to this workflow's job (ids recur across generated
                # DAGs, so an operation mismatch marks a foreign record)
                job_id = record.job_id
                if not job_id or job_id not in workflow:
                    continue
                if workflow.job(job_id).operation != record.operation:
                    continue
                estimate = self.base.computation_cost(job_id, record.resource_id)
                if estimate <= 1e-12:
                    continue
            observed.setdefault(record.resource_id, []).append(record.duration / estimate)
        return observed

    def resource_ratio(self, resource_id: str) -> float:
        """The learned correction factor of one resource (1.0 = no history)."""
        return self._ratios.get(resource_id, 1.0)


@dataclass
class Predictor:
    """Builds the estimation matrix ``P = estimate(T, R)`` of paper Fig. 2.

    Parameters
    ----------
    history:
        The Performance History Repository shared with the Planner.
    blend:
        How strongly the learned per-resource corrections apply (1 = fully,
        0 = keep the prior); see :class:`RatioAdjustedCostModel`.
    """

    history: PerformanceHistoryRepository
    blend: float = 1.0

    def estimate(self, prior: CostModel) -> CostModel:
        """Return the cost model the Scheduler should plan with."""
        if len(self.history) == 0 or self.blend == 0:
            return prior
        return RatioAdjustedCostModel(prior, self.history, blend=self.blend)

    def estimation_matrix(
        self, prior: CostModel, resources: Sequence[str]
    ) -> "np.ndarray":
        """The dense ``v × |R|`` matrix ``P`` (useful for inspection/tests).

        Rows follow ``workflow.jobs``.  The array is the model's memoised
        :meth:`~repro.workflow.costs.CostModel.computation_matrix` view:
        copy it before mutating.
        """
        return self.estimate(prior).computation_matrix(resources)
