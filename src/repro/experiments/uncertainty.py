"""Monte Carlo replication over stochastic ground-truth runtimes.

The paper's architecture exists because execution-time estimates are
wrong; this module measures how wrong they can get before each strategy
breaks.  :func:`uncertainty_cell` runs the instances of one config many
times, each replication drawing an independent sampled truth from an
:class:`~repro.workflow.costs.ErrorModel`, and summarises the achieved
makespans with mean/std/CI95 (:func:`~repro.experiments.metrics
.makespan_statistics`).  Handed to
:func:`~repro.experiments.sweep.sweep_matrix` over a ``scenario`` and a
``magnitude`` axis it gives the error-magnitude × scenario matrix — the
committed smoke baseline of that matrix pins the paper's qualitative
claim that AHEFT's improvement over static HEFT *grows* with estimate
error.

Every replication is deterministic in ``(seed, instance, replication)``
(the error model's hierarchical streams do not depend on query order), so
the cell fans out over the parallel case runner without changing a
single digit: ledgers are byte-identical for ``workers=1`` and
``workers=N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro import registry
from repro.experiments.metrics import (
    MakespanStatistics,
    improvement_rate,
    makespan_statistics,
)
from repro.experiments.runner import run_instances

__all__ = [
    "IMPROVEMENT_PAIRS",
    "UncertaintyPoint",
    "uncertainty_cell",
]

#: (baseline, improved) strategy pairs the improvement is reported for, in
#: order of preference: the legacy ledger labels and their registry twins
IMPROVEMENT_PAIRS = (("HEFT", "AHEFT"), ("heft", "aheft"))


@dataclass
class UncertaintyPoint:
    """One cell of the uncertainty matrix: (scenario, error family, magnitude)."""

    scenario: str
    error_model: str
    magnitude: float
    instances: int
    replications: int
    #: strategy -> mean/std/CI95 of the achieved makespans
    stats: Dict[str, MakespanStatistics]
    #: paper-style improvement rate of AHEFT over HEFT on the mean makespans;
    #: this and the next three are ``None`` when no pair of
    #: :data:`IMPROVEMENT_PAIRS` ran
    improvement: Optional[float]
    #: mean and CI95 bounds of the paired per-replication improvement rates
    improvement_mean: Optional[float]
    improvement_ci95_low: Optional[float]
    improvement_ci95_high: Optional[float]

    @property
    def mean_makespans(self) -> Dict[str, float]:
        return {strategy: stat.mean for strategy, stat in self.stats.items()}


def uncertainty_cell(
    config,
    *,
    magnitude: float,
    error_model: str = "gaussian",
    instances: int = 1,
    replications: int = 3,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    workers: Optional[int] = None,
) -> UncertaintyPoint:
    """``instances`` × ``replications`` runs of ``config`` under sampled truths.

    Replication ``r`` perturbs actual durations with the ``error_model``
    family at ``magnitude``; the schedulers always plan on the unperturbed
    estimates.  Across the cells of a matrix the *same* workloads and —
    because a truth draw depends only on ``(seed, instance, replication)``,
    never on the scenario or the magnitude's distribution shape — maximally
    correlated truths recur, so differences between rows measure the error
    magnitude and the dynamics, not sampling noise.
    """
    model = registry.make(
        "error_model", error_model, magnitude=float(magnitude), seed=config.seed
    )
    results = run_instances(
        config,
        instances=instances,
        strategies=strategies,
        workers=workers,
        error_model=model,
        replications=replications,
    )
    makespans = {
        strategy: [result.makespans[strategy] for result in results]
        for strategy in strategies
    }
    stats = {
        strategy: makespan_statistics(values) for strategy, values in makespans.items()
    }
    improvement = mean = low = high = None
    pair = next((p for p in IMPROVEMENT_PAIRS if set(p) <= set(makespans)), None)
    if pair is not None:
        baseline, improved = pair
        improvement = improvement_rate(stats[baseline].mean, stats[improved].mean)
        paired = makespan_statistics(
            [
                improvement_rate(b, a)
                for b, a in zip(makespans[baseline], makespans[improved])
            ]
        )
        mean, low, high = paired.mean, paired.ci95_low, paired.ci95_high
    return UncertaintyPoint(
        scenario=config.scenario,
        error_model=model.name,
        magnitude=float(magnitude),
        instances=instances,
        replications=replications,
        stats=stats,
        improvement=improvement,
        improvement_mean=mean,
        improvement_ci95_low=low,
        improvement_ci95_high=high,
    )
