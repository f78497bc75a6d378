"""Monte Carlo replication over stochastic ground-truth runtimes.

The paper's architecture exists because execution-time estimates are
wrong; this module measures how wrong they can get before each strategy
breaks.  :func:`run_replicated` executes one experiment case many times,
each replication drawing an independent sampled truth from an
:class:`~repro.workflow.costs.ErrorModel`, and summarises the achieved
makespans with mean/std/CI95 (:func:`~repro.experiments.metrics
.makespan_statistics`).  :func:`sweep_uncertainty` runs the full
error-magnitude × scenario × strategy matrix — the committed smoke
baseline of this sweep pins the paper's qualitative claim that AHEFT's
improvement over static HEFT *grows* with estimate error.

Every replication is deterministic in ``(seed, instance, replication)``
(the error model's hierarchical streams do not depend on query order), so
the sweep fans out over the PR-1 parallel case runner without changing a
single digit: ledgers are byte-identical for ``workers=1`` and
``workers=N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro import registry
from repro.experiments.config import RandomExperimentConfig
from repro.experiments.metrics import (
    MakespanStatistics,
    improvement_rate,
    makespan_statistics,
)
from repro.experiments.runner import CaseResult, ExperimentCase, run_case_batch
from repro.workflow.costs import ErrorModel

__all__ = [
    "ReplicationSummary",
    "UncertaintyPoint",
    "run_replicated",
    "sweep_uncertainty",
]


@dataclass
class ReplicationSummary:
    """All replications of one case set under one error model."""

    error_model: str
    magnitude: float
    replications: int
    #: strategy -> achieved makespan per (instance, replication), in order
    makespans: Dict[str, List[float]]
    #: strategy -> mean/std/CI95 over those makespans
    stats: Dict[str, MakespanStatistics]
    #: paired per-replication improvement rates of ``improved`` over
    #: ``baseline`` (empty when either strategy was not run)
    improvements: List[float] = field(default_factory=list)
    improvement_stats: MakespanStatistics = field(
        default_factory=lambda: makespan_statistics([])
    )
    results: List[CaseResult] = field(default_factory=list)

    def improvement_of_means(
        self, baseline: str = "HEFT", improved: str = "AHEFT"
    ) -> float:
        """The paper-style improvement rate computed on mean makespans."""
        return improvement_rate(
            self.stats[baseline].mean, self.stats[improved].mean
        )


def summarize_results(
    results: Sequence[CaseResult],
    *,
    error_model: ErrorModel,
    replications: int,
    strategies: Sequence[str],
    baseline: str = "HEFT",
    improved: str = "AHEFT",
) -> ReplicationSummary:
    """Aggregate per-replication case results into a :class:`ReplicationSummary`."""
    makespans: Dict[str, List[float]] = {
        strategy: [result.makespans[strategy] for result in results]
        for strategy in strategies
    }
    stats = {
        strategy: makespan_statistics(values)
        for strategy, values in makespans.items()
    }
    improvements: List[float] = []
    if baseline in makespans and improved in makespans:
        improvements = [
            improvement_rate(b, a)
            for b, a in zip(makespans[baseline], makespans[improved])
        ]
    return ReplicationSummary(
        error_model=error_model.name,
        magnitude=error_model.magnitude,
        replications=replications,
        makespans=makespans,
        stats=stats,
        improvements=improvements,
        improvement_stats=makespan_statistics(improvements),
        results=list(results),
    )


def run_replicated(
    experiment: ExperimentCase,
    *,
    error_model: ErrorModel,
    replications: int,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    workers: Optional[int] = None,
) -> ReplicationSummary:
    """Run one case ``replications`` times under independent sampled truths.

    Replication ``r`` perturbs actual durations with
    ``error_model.for_replication(r)``; the scheduler always plans on the
    unperturbed estimates.  Replications are independent, so ``workers=N``
    fans them out over processes with byte-identical results.
    """
    if replications <= 0:
        raise ValueError("replications must be positive")
    models = [error_model.for_replication(r) for r in range(replications)]
    results = run_case_batch(
        [experiment] * replications,
        strategies=strategies,
        workers=workers,
        error_models=models,
    )
    return summarize_results(
        results,
        error_model=error_model,
        replications=replications,
        strategies=strategies,
    )


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
    #: paper-style improvement rate on the mean makespans
    improvement: float
    #: mean and CI95 of the paired per-replication improvement rates
    improvement_stats: MakespanStatistics
    results: List[CaseResult] = field(default_factory=list)

    @property
    def mean_makespans(self) -> Dict[str, float]:
        return {strategy: stat.mean for strategy, stat in self.stats.items()}

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form for the benchmark ledgers."""
        return {
            "scenario": self.scenario,
            "error_model": self.error_model,
            "magnitude": self.magnitude,
            "instances": self.instances,
            "replications": self.replications,
            "stats": {
                strategy: stat.as_dict()
                for strategy, stat in sorted(self.stats.items())
            },
            "improvement": self.improvement,
            "improvement_mean": self.improvement_stats.mean,
            "improvement_ci95_low": self.improvement_stats.ci95_low,
            "improvement_ci95_high": self.improvement_stats.ci95_high,
        }


def sweep_uncertainty(
    magnitudes: Sequence[float],
    *,
    error_model: str = "gaussian",
    scenarios: Sequence[str] = ("paper",),
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    base_config: Optional[RandomExperimentConfig] = None,
    instances: int = 1,
    replications: int = 3,
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[UncertaintyPoint]:
    """The uncertainty matrix: error magnitude × scenario × strategy.

    Every cell runs ``instances`` workflow instances × ``replications``
    sampled truths.  The *same* workloads and — because a truth draw
    depends only on ``(seed, instance, replication)``, never on the
    scenario or the magnitude's distribution shape — maximally correlated
    truths recur across cells, so differences between rows measure the
    error magnitude and the dynamics, not sampling noise.  All cells of a
    sweep fan out over the PR-1 parallel case runner; results are
    byte-identical for any ``workers`` setting.
    """
    if not magnitudes:
        raise ValueError("at least one error magnitude is required")
    base = base_config or RandomExperimentConfig(v=30, resources=8, seed=seed)
    points: List[UncertaintyPoint] = []
    for scenario in scenarios:
        for magnitude in magnitudes:
            model = registry.make(
                "error_model", error_model, magnitude=float(magnitude), seed=seed
            )
            experiments: List[ExperimentCase] = []
            models: List[ErrorModel] = []
            for instance in range(instances):
                config = replace(
                    base,
                    instance=instance,
                    seed=seed + instance,
                    scenario=scenario,
                )
                experiment = config.to_experiment_case()
                for replication in range(replications):
                    experiments.append(experiment)
                    models.append(
                        model.for_replication(replication).scoped(f"i{instance}")
                    )
            results = run_case_batch(
                experiments,
                strategies=strategies,
                workers=workers,
                error_models=models,
            )
            summary = summarize_results(
                results,
                error_model=model,
                replications=replications,
                strategies=strategies,
            )
            points.append(
                UncertaintyPoint(
                    scenario=scenario,
                    error_model=model.name,
                    magnitude=float(magnitude),
                    instances=instances,
                    replications=replications,
                    stats=summary.stats,
                    improvement=summary.improvement_of_means()
                    if "HEFT" in summary.stats and "AHEFT" in summary.stats
                    else 0.0,
                    improvement_stats=summary.improvement_stats,
                    results=results,
                )
            )
    return points
