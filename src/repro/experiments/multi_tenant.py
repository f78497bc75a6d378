"""Multi-tenant experiment cases and their metrics.

One *multi-tenant case* is: ``N`` tenants submitting Poisson streams of
heterogeneous workflows to one shared grid whose dynamics come from a named
scenario.  :func:`run_multi_tenant_case` wires the workload layer, the
scenario engine and the shared-grid executor together and reduces the
outcomes to the metrics multi-tenant schedulers are judged by:

* **flow time** — completion minus arrival (mean and 95th percentile),
* **stretch** — flow time over the span the workflow was predicted to need
  alone on the pool it arrived to (mean; 1.0 = zero contention),
* **throughput** — completed workflows per 1000 logical time units of the
  whole run,
* **fairness** — Jain's index over the tenants' mean stretches (1.0 =
  every tenant slowed down equally),
* **wasted work / kills** — departure damage, attributed to the tenant
  whose job was killed,
* **overload management** — p99 stretch, rejection/deferral counts from
  the admission controller (``admission=True``), deadline/SLO violation
  counts and the final per-tenant credit scores.

Everything derives from the case's seed, so results are deterministic and
ledger-comparable across machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.admission import AdmissionConfig
from repro.experiments.metrics import average, jain_fairness_index, percentile
from repro.facade import run as facade_run
from repro.simulation.shared_grid import SharedGridResult
from repro.workload.streams import TenantSpec, WorkloadStream, default_tenants

__all__ = [
    "MultiTenantConfig",
    "TenantMetrics",
    "MultiTenantCaseResult",
    "run_multi_tenant_case",
]


@dataclass(frozen=True)
class MultiTenantConfig:
    """One fully specified multi-tenant experiment point."""

    tenants: int = 4
    arrival_rate: float = 0.005
    policy: str = "fifo"
    #: registered scheduler every tenant replans with (``reschedule`` kinds)
    strategy: str = "aheft"
    resources: int = 10
    scenario: str = "static"
    scenario_params: Tuple[Tuple[str, object], ...] = ()
    v: int = 24
    parallelism: int = 12
    ccr: float = 1.0
    beta: float = 0.5
    omega_dag: float = 300.0
    max_arrivals: int = 6
    horizon: float = 8000.0
    seed: int = 0
    #: overload management (off by default — bit-identical to before)
    admission: bool = False
    saturation_threshold: float = 0.85
    stretch_limit: float = 4.0
    max_deferrals: int = 4
    #: optional service targets handed to every tenant
    deadline_factor: Optional[float] = None
    slo_stretch: Optional[float] = None

    def build_tenants(self) -> List[TenantSpec]:
        return default_tenants(
            self.tenants,
            arrival_rate=self.arrival_rate,
            max_arrivals=self.max_arrivals,
            v=self.v,
            parallelism=self.parallelism,
            ccr=self.ccr,
            beta=self.beta,
            omega_dag=self.omega_dag,
            deadline_factor=self.deadline_factor,
            slo_stretch=self.slo_stretch,
        )

    def build_admission(self) -> Optional[AdmissionConfig]:
        if not self.admission:
            return None
        return AdmissionConfig(
            saturation_threshold=self.saturation_threshold,
            stretch_limit=self.stretch_limit,
            max_deferrals=self.max_deferrals,
        )

    def build_stream(self) -> WorkloadStream:
        return WorkloadStream(
            self.build_tenants(), seed=self.seed, horizon=self.horizon
        )

    def build_scenario_run(self):
        """Materialise the scenario into the shared pool + perf profile."""
        from repro import registry
        from repro.scenarios import materialize

        scenario = registry.make("scenario", self.scenario, **dict(self.scenario_params))
        return materialize(
            scenario,
            initial_size=self.resources,
            seed=self.seed,
            horizon=self.horizon,
        )

    def as_params(self) -> Dict[str, object]:
        return {
            "tenants": self.tenants,
            "arrival_rate": self.arrival_rate,
            "policy": self.policy,
            "strategy": self.strategy,
            "resources": self.resources,
            "scenario": self.scenario,
            "scenario_params": dict(self.scenario_params),
            "v": self.v,
            "parallelism": self.parallelism,
            "ccr": self.ccr,
            "beta": self.beta,
            "omega_dag": self.omega_dag,
            "max_arrivals": self.max_arrivals,
            "horizon": self.horizon,
            "seed": self.seed,
            "admission": self.admission,
            "saturation_threshold": self.saturation_threshold,
            "stretch_limit": self.stretch_limit,
            "max_deferrals": self.max_deferrals,
            "deadline_factor": self.deadline_factor,
            "slo_stretch": self.slo_stretch,
        }


@dataclass
class TenantMetrics:
    """Service metrics of one tenant over one multi-tenant run."""

    tenant: str
    workflows: int
    mean_flow_time: float
    p95_flow_time: float
    mean_stretch: float
    throughput: float
    wasted_work: float
    killed_jobs: int
    deadline_violations: int = 0
    slo_violations: int = 0
    credit: float = 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "workflows": self.workflows,
            "mean_flow_time": self.mean_flow_time,
            "p95_flow_time": self.p95_flow_time,
            "mean_stretch": self.mean_stretch,
            "throughput": self.throughput,
            "wasted_work": self.wasted_work,
            "killed_jobs": self.killed_jobs,
            "deadline_violations": self.deadline_violations,
            "slo_violations": self.slo_violations,
            "credit": self.credit,
        }


@dataclass
class MultiTenantCaseResult:
    """Aggregated multi-tenant metrics for one configuration."""

    config: MultiTenantConfig
    result: SharedGridResult
    per_tenant: Dict[str, TenantMetrics] = field(default_factory=dict)

    @property
    def workflows(self) -> int:
        return len(self.result.outcomes)

    @property
    def run_makespan(self) -> float:
        return self.result.makespan()

    @property
    def mean_flow_time(self) -> float:
        return average(o.flow_time for o in self.result.outcomes)

    @property
    def p95_flow_time(self) -> float:
        return percentile([o.flow_time for o in self.result.outcomes], 95.0)

    @property
    def mean_stretch(self) -> float:
        return average(o.stretch for o in self.result.outcomes)

    @property
    def p99_stretch(self) -> float:
        """Tail stretch — the overload-management headline metric."""
        return percentile([o.stretch for o in self.result.outcomes], 99.0)

    @property
    def rejected(self) -> int:
        return self.result.rejected_count

    @property
    def deferrals(self) -> int:
        return self.result.deferral_count

    @property
    def rejection_rate(self) -> float:
        """Rejected over offered (admitted + rejected) workflows."""
        offered = self.workflows + self.rejected
        return 0.0 if offered == 0 else self.rejected / offered

    @property
    def deadline_violations(self) -> int:
        return self.result.deadline_violations()

    @property
    def slo_violations(self) -> int:
        return self.result.slo_violations()

    @property
    def throughput(self) -> float:
        """Completed workflows per 1000 logical time units."""
        span = self.run_makespan
        if span <= 0:
            return 0.0
        return 1000.0 * self.workflows / span

    @property
    def fairness(self) -> float:
        """Jain's index over the tenants' mean stretches."""
        return jain_fairness_index(
            metrics.mean_stretch for metrics in self.per_tenant.values()
        )

    @property
    def wasted_work(self) -> float:
        return self.result.total_wasted_work()

    @property
    def killed_jobs(self) -> int:
        return self.result.total_killed_jobs()

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form for the benchmark ledgers."""
        return {
            "params": self.config.as_params(),
            "workflows": self.workflows,
            "run_makespan": self.run_makespan,
            "mean_flow_time": self.mean_flow_time,
            "p95_flow_time": self.p95_flow_time,
            "mean_stretch": self.mean_stretch,
            "p99_stretch": self.p99_stretch,
            "throughput": self.throughput,
            "fairness": self.fairness,
            "wasted_work": self.wasted_work,
            "killed_jobs": self.killed_jobs,
            "rejected": self.rejected,
            "deferrals": self.deferrals,
            "rejection_rate": self.rejection_rate,
            "deadline_violations": self.deadline_violations,
            "slo_violations": self.slo_violations,
            "credits": dict(sorted(self.result.credits.items())),
            "per_tenant": {
                tenant: metrics.as_dict()
                for tenant, metrics in sorted(self.per_tenant.items())
            },
        }


def _tenant_metrics(result: SharedGridResult, tenant: str) -> TenantMetrics:
    outcomes = result.for_tenant(tenant)
    span = result.makespan()
    return TenantMetrics(
        tenant=tenant,
        workflows=len(outcomes),
        mean_flow_time=average(o.flow_time for o in outcomes),
        p95_flow_time=percentile([o.flow_time for o in outcomes], 95.0),
        mean_stretch=average(o.stretch for o in outcomes),
        throughput=0.0 if span <= 0 else 1000.0 * len(outcomes) / span,
        wasted_work=sum(o.wasted_work for o in outcomes),
        killed_jobs=sum(o.killed_jobs for o in outcomes),
        deadline_violations=sum(1 for o in outcomes if o.deadline_violated),
        slo_violations=sum(1 for o in outcomes if o.slo_violated),
        credit=result.credits.get(tenant, 1.0),
    )


def run_multi_tenant_case(
    config: MultiTenantConfig,
    *,
    tenants: Optional[List[TenantSpec]] = None,
) -> MultiTenantCaseResult:
    """Run one multi-tenant case end to end.

    ``tenants`` overrides the default tenant specs (e.g. for trace-replay
    workloads); everything else — arrival stream, scenario materialisation,
    shared-grid execution — derives deterministically from ``config``.
    """
    specs = tenants if tenants is not None else config.build_tenants()
    stream = WorkloadStream(specs, seed=config.seed, horizon=config.horizon)
    scenario_run = config.build_scenario_run()
    options: Dict[str, object] = {}
    admission = config.build_admission()
    if admission is not None:
        options["admission"] = admission
    if config.admission or config.deadline_factor is not None or (
        config.slo_stretch is not None
    ):
        # overload runs always score tenant behaviour, whatever the policy
        # (credit_drf brings its own ledger otherwise)
        from repro.core.credit import CreditLedger

        options["credit_ledger"] = CreditLedger()
    result = facade_run(
        stream,
        scenario_run.pool,
        mode="multi",
        perf_profile=scenario_run.profile,
        policy=config.policy,
        tenant_weights=stream.weights(),
        strategy=config.strategy,
        **options,
    ).raw
    per_tenant = {
        tenant: _tenant_metrics(result, tenant) for tenant in result.tenants()
    }
    return MultiTenantCaseResult(config=config, result=result, per_tenant=per_tenant)


def with_policy(config: MultiTenantConfig, policy: str) -> MultiTenantConfig:
    """The same case under a different interleave policy."""
    return replace(config, policy=policy)
