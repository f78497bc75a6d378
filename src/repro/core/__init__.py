"""The paper's contribution: adaptive rescheduling (Planner side).

This package implements the collaboration between Planner and Executor that
the paper proposes (§3):

* :mod:`~repro.core.history` — the Performance History Repository,
* :mod:`~repro.core.predictor` — the Predictor producing the estimation
  matrix ``P`` from prior costs and observed history,
* :mod:`~repro.core.adaptive` — the generic adaptive rescheduling loop of
  paper Fig. 2 and the strategy runners (static / adaptive / dynamic),
* :mod:`~repro.core.whatif` — "what … if …" queries (§3.3, future work in
  the paper, implemented here as an extension).
"""

from repro.core.history import PerformanceHistoryRepository, PerformanceRecord
from repro.core.predictor import (
    Predictor,
    RatioAdjustedCostModel,
)
from repro.core.adaptive import (
    AdaptiveReschedulingLoop,
    AdaptiveRunResult,
    ReschedulingDecision,
    apply_departure_kills,
    project_actuals,
)
from repro.core.multi_tenant import POLICIES, ActiveWorkflow, MultiTenantPlanner
from repro.core.whatif import WhatIfAnalyzer, WhatIfResult

__all__ = [
    "PerformanceHistoryRepository",
    "PerformanceRecord",
    "Predictor",
    "RatioAdjustedCostModel",
    "AdaptiveReschedulingLoop",
    "AdaptiveRunResult",
    "ReschedulingDecision",
    "apply_departure_kills",
    "project_actuals",
    "POLICIES",
    "ActiveWorkflow",
    "MultiTenantPlanner",
    "WhatIfAnalyzer",
    "WhatIfResult",
]
