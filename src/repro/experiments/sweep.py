"""Parameter sweeps and aggregation.

The paper's tables and figures all have the same shape: vary one parameter
(CCR, number of jobs, β, initial pool size, Δ, δ), average the makespan of
each strategy over many generated instances, and report either the average
makespans (Fig. 8) or the improvement rate of AHEFT over HEFT (Tables 3, 4,
7, 8).  :func:`sweep_random_parameter` and
:func:`sweep_application_parameter` implement exactly that pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro import registry
from repro.experiments.config import (
    ApplicationExperimentConfig,
    RandomExperimentConfig,
)
from repro.experiments.metrics import average, improvement_rate
from repro.experiments.runner import CaseResult, ExperimentCase, run_case_batch

__all__ = [
    "SweepPoint",
    "ScenarioPoint",
    "MultiWorkflowPoint",
    "run_cases",
    "aggregate_results",
    "improvement_rate_by",
    "sweep_random_parameter",
    "sweep_application_parameter",
    "sweep_scenarios",
    "sweep_multi_workflow",
]


@dataclass
class MultiWorkflowPoint:
    """One cell of the multi-tenant matrix: (strategy, scenario, tenants, rate, policy)."""

    scenario: str
    tenants: int
    arrival_rate: float
    policy: str
    strategy: str
    workflows: int
    run_makespan: float
    mean_flow_time: float
    p95_flow_time: float
    mean_stretch: float
    throughput: float
    fairness: float
    wasted_work: float
    killed_jobs: int
    #: overload-management columns (zeros when admission control is off)
    p99_stretch: float = 0.0
    rejected: int = 0
    deferrals: int = 0
    deadline_violations: int = 0
    slo_violations: int = 0
    admission: bool = False
    per_tenant: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form for the benchmark ledgers."""
        return {
            "scenario": self.scenario,
            "tenants": self.tenants,
            "arrival_rate": self.arrival_rate,
            "policy": self.policy,
            "strategy": self.strategy,
            "workflows": self.workflows,
            "run_makespan": self.run_makespan,
            "mean_flow_time": self.mean_flow_time,
            "p95_flow_time": self.p95_flow_time,
            "mean_stretch": self.mean_stretch,
            "throughput": self.throughput,
            "fairness": self.fairness,
            "wasted_work": self.wasted_work,
            "killed_jobs": self.killed_jobs,
            "p99_stretch": self.p99_stretch,
            "rejected": self.rejected,
            "deferrals": self.deferrals,
            "deadline_violations": self.deadline_violations,
            "slo_violations": self.slo_violations,
            "admission": self.admission,
            "per_tenant": self.per_tenant,
        }


@dataclass
class ScenarioPoint:
    """Aggregated strategy comparison under one named scenario."""

    scenario: str
    description: str
    mean_makespans: Dict[str, float]
    mean_reschedules: Dict[str, float]
    mean_wasted_work: Dict[str, float]
    case_count: int
    results: List[CaseResult] = field(default_factory=list)

    def improvement(self, baseline: str = "HEFT", improved: str = "AHEFT") -> float:
        """Improvement rate computed on the averaged makespans."""
        return improvement_rate(
            self.mean_makespans[baseline], self.mean_makespans[improved]
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form for the benchmark ledgers."""
        return {
            "scenario": self.scenario,
            "description": self.description,
            "case_count": self.case_count,
            "mean_makespans": dict(self.mean_makespans),
            "mean_reschedules": dict(self.mean_reschedules),
            "mean_wasted_work": dict(self.mean_wasted_work),
        }


@dataclass
class SweepPoint:
    """Aggregated result at one value of the swept parameter."""

    parameter: str
    value: object
    mean_makespans: Dict[str, float]
    case_count: int
    results: List[CaseResult] = field(default_factory=list)

    def improvement(self, baseline: str = "HEFT", improved: str = "AHEFT") -> float:
        """Improvement rate computed on the averaged makespans (as the paper does)."""
        return improvement_rate(
            self.mean_makespans[baseline], self.mean_makespans[improved]
        )


def run_cases(
    experiments: Iterable[ExperimentCase],
    *,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    workers: Optional[int] = None,
) -> List[CaseResult]:
    """Run every experiment case and collect the results (in order).

    ``workers=N`` (opt-in) fans the independent cases out over N processes;
    per-case seeds live inside the cases, so results are identical to a
    serial run.
    """
    return run_case_batch(list(experiments), strategies=strategies, workers=workers)


def aggregate_results(
    results: Sequence[CaseResult],
    *,
    group_key: str,
) -> Dict[object, Dict[str, float]]:
    """Mean makespan per strategy, grouped by one case parameter."""
    grouped: Dict[object, List[CaseResult]] = {}
    for result in results:
        grouped.setdefault(result.params.get(group_key), []).append(result)
    out: Dict[object, Dict[str, float]] = {}
    for value, members in sorted(grouped.items(), key=lambda kv: str(kv[0])):
        strategies = members[0].strategies()
        out[value] = {
            strategy: average(m.makespans[strategy] for m in members)
            for strategy in strategies
        }
    return out


def improvement_rate_by(
    results: Sequence[CaseResult],
    *,
    group_key: str,
    baseline: str = "HEFT",
    improved: str = "AHEFT",
) -> Dict[object, float]:
    """Improvement rate of averaged makespans, grouped by one parameter."""
    aggregated = aggregate_results(results, group_key=group_key)
    return {
        value: improvement_rate(means[baseline], means[improved])
        for value, means in aggregated.items()
    }


# ----------------------------------------------------------------------
# one-parameter sweeps
# ----------------------------------------------------------------------
def _sweep(
    configs_for_value: Callable[[object, int], List],
    parameter: str,
    values: Sequence[object],
    *,
    instances: int,
    strategies: Sequence[str],
    workers: Optional[int] = None,
) -> List[SweepPoint]:
    points: List[SweepPoint] = []
    for value in values:
        experiments: List[ExperimentCase] = []
        for config in configs_for_value(value, instances):
            experiments.append(
                ExperimentCase(
                    case=config.build_case(),
                    resource_model=config.build_resource_model(),
                )
            )
        results = run_cases(experiments, strategies=strategies, workers=workers)
        mean_makespans = {
            strategy: average(result.makespans[strategy] for result in results)
            for strategy in strategies
        }
        points.append(
            SweepPoint(
                parameter=parameter,
                value=value,
                mean_makespans=mean_makespans,
                case_count=len(results),
                results=results,
            )
        )
    return points


def sweep_random_parameter(
    parameter: str,
    values: Sequence[object],
    *,
    base_config: Optional[RandomExperimentConfig] = None,
    instances: int = 3,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[SweepPoint]:
    """Sweep one Table 2 parameter on random DAGs, averaging over instances."""
    base = base_config or RandomExperimentConfig(seed=seed)
    if not hasattr(base, parameter):
        raise ValueError(f"unknown random-DAG parameter: {parameter!r}")

    def configs_for_value(value, count):
        return [
            replace(base, **{parameter: value}, instance=i, seed=seed + i)
            for i in range(count)
        ]

    return _sweep(
        configs_for_value,
        parameter,
        values,
        instances=instances,
        strategies=strategies,
        workers=workers,
    )


def sweep_scenarios(
    scenarios: Sequence[object],
    *,
    base_config: Optional[RandomExperimentConfig] = None,
    instances: int = 3,
    strategies: Sequence[str] = ("HEFT", "AHEFT", "MinMin"),
    seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> List[ScenarioPoint]:
    """Compare the strategies under each scenario on the same workloads.

    ``scenarios`` may mix registry names (``"churn"``) and
    :class:`~repro.scenarios.base.Scenario` instances.  Every scenario runs
    the *same* ``instances`` workflow instances (derived from
    ``base_config``), so differences between scenario rows are caused by
    the dynamics, not by workload sampling noise.  Reported per strategy:
    mean makespan, mean adopted-reschedule count, and mean wasted work
    (execution time thrown away when departures kill running jobs).
    """
    base = base_config or RandomExperimentConfig()
    if seed is None:
        seed = base.seed
    points: List[ScenarioPoint] = []
    for entry in scenarios:
        scenario = (
            registry.make("scenario", entry) if isinstance(entry, str) else entry
        )
        experiments: List[ExperimentCase] = []
        for instance in range(instances):
            config = replace(base, instance=instance, seed=seed + instance)
            if isinstance(entry, str):
                # registry names flow through the config layer, so the
                # scenario choice is recorded in the config's params
                config = replace(config, scenario=entry)
                experiments.append(config.to_experiment_case())
            else:
                experiments.append(
                    ExperimentCase(
                        case=config.build_case(),
                        resource_model=config.build_resource_model(),
                        scenario=scenario,
                        scenario_seed=config.seed,
                    )
                )
        results = run_cases(experiments, strategies=strategies, workers=workers)
        points.append(
            ScenarioPoint(
                scenario=scenario.name,
                description=scenario.describe(),
                mean_makespans={
                    strategy: average(r.makespans[strategy] for r in results)
                    for strategy in strategies
                },
                mean_reschedules={
                    strategy: average(
                        r.rescheduling_counts.get(strategy, 0) for r in results
                    )
                    for strategy in strategies
                },
                mean_wasted_work={
                    strategy: average(
                        r.wasted_work.get(strategy, 0.0) for r in results
                    )
                    for strategy in strategies
                },
                case_count=len(results),
                results=results,
            )
        )
    return points


def sweep_multi_workflow(
    *,
    arrival_rates: Sequence[float] = (0.005,),
    tenant_counts: Sequence[int] = (4,),
    scenarios: Sequence[str] = ("static",),
    policies: Sequence[str] = ("fifo",),
    strategies: Sequence[str] = ("aheft",),
    base_config=None,
    seed: Optional[int] = None,
) -> List["MultiWorkflowPoint"]:
    """The multi-tenant matrix: rate × tenants × scenario × policy × strategy.

    Every cell runs one deterministic multi-tenant case (see
    :func:`~repro.experiments.multi_tenant.run_multi_tenant_case`) derived
    from ``base_config`` with the cell's parameters substituted.  The same
    seed is used across cells, so a tenant's arrival stream is identical in
    every scenario/policy/strategy cell with the same tenant count —
    differences between rows are caused by the dynamics, the policy and
    the replanning heuristic, not by workload sampling noise.

    ``strategies`` names registered schedulers with the ``reschedule``
    interface (``aheft``, ``cpop``, ``heft_dup``, ...): every tenant in a
    cell replans with that heuristic.
    """
    from repro.experiments.multi_tenant import (
        MultiTenantConfig,
        run_multi_tenant_case,
    )

    base = base_config or MultiTenantConfig()
    if seed is not None:
        base = replace(base, seed=seed)
    points: List[MultiWorkflowPoint] = []
    for scenario in scenarios:
        for tenants in tenant_counts:
            for rate in arrival_rates:
                for policy in policies:
                    for strategy in strategies:
                        config = replace(
                            base,
                            scenario=scenario,
                            tenants=int(tenants),
                            arrival_rate=float(rate),
                            policy=policy,
                            strategy=strategy,
                        )
                        outcome = run_multi_tenant_case(config)
                        points.append(
                            MultiWorkflowPoint(
                                scenario=scenario,
                                tenants=int(tenants),
                                arrival_rate=float(rate),
                                policy=policy,
                                strategy=strategy,
                                workflows=outcome.workflows,
                                run_makespan=outcome.run_makespan,
                                mean_flow_time=outcome.mean_flow_time,
                                p95_flow_time=outcome.p95_flow_time,
                                mean_stretch=outcome.mean_stretch,
                                throughput=outcome.throughput,
                                fairness=outcome.fairness,
                                wasted_work=outcome.wasted_work,
                                killed_jobs=outcome.killed_jobs,
                                p99_stretch=outcome.p99_stretch,
                                rejected=outcome.rejected,
                                deferrals=outcome.deferrals,
                                deadline_violations=outcome.deadline_violations,
                                slo_violations=outcome.slo_violations,
                                admission=config.admission,
                                per_tenant={
                                    tenant: metrics.as_dict()
                                    for tenant, metrics in sorted(
                                        outcome.per_tenant.items()
                                    )
                                },
                            )
                        )
    return points


def sweep_application_parameter(
    application: str,
    parameter: str,
    values: Sequence[object],
    *,
    base_config: Optional[ApplicationExperimentConfig] = None,
    instances: int = 3,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[SweepPoint]:
    """Sweep one Table 5 parameter on an application DAG (BLAST/WIEN2K/Montage)."""
    base = base_config or ApplicationExperimentConfig(application=application, seed=seed)
    if base.application != application:
        base = replace(base, application=application)
    if not hasattr(base, parameter):
        raise ValueError(f"unknown application parameter: {parameter!r}")

    def configs_for_value(value, count):
        return [
            replace(base, **{parameter: value}, instance=i, seed=seed + i)
            for i in range(count)
        ]

    return _sweep(
        configs_for_value,
        parameter,
        values,
        instances=instances,
        strategies=strategies,
        workers=workers,
    )
