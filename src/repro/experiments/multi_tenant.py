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

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.admission import AdmissionConfig
from repro.experiments.metrics import average, jain_fairness_index, percentile
from repro.facade import run as facade_run
from repro.simulation.shared_grid import SharedGridResult, WorkflowOutcome
from repro.workload.streams import TenantSpec, WorkloadStream, default_tenants

__all__ = [
    "MultiTenantConfig",
    "ServiceMetrics",
    "TenantMetrics",
    "MultiTenantMetrics",
    "MultiWorkflowPoint",
    "MultiTenantCaseResult",
    "run_multi_tenant_case",
    "multi_tenant_cell",
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
        """JSON-friendly form for the ledgers (``scenario_params`` as a dict)."""
        return dict(asdict(self), scenario_params=dict(self.scenario_params))


@dataclass(kw_only=True)
class ServiceMetrics:
    """The service a set of workflows received over one shared-grid run."""

    workflows: int
    mean_flow_time: float
    p95_flow_time: float
    mean_stretch: float
    #: completed workflows per 1000 logical time units of the whole run
    throughput: float
    wasted_work: float
    killed_jobs: int
    deadline_violations: int
    slo_violations: int

    @classmethod
    def over(cls, outcomes: Sequence[WorkflowOutcome], span: float, **extra):
        """Measure ``outcomes`` of a run lasting ``span``; ``extra`` fills
        the subclass's own fields."""
        return cls(
            workflows=len(outcomes),
            mean_flow_time=average(o.flow_time for o in outcomes),
            p95_flow_time=percentile([o.flow_time for o in outcomes], 95.0),
            mean_stretch=average(o.stretch for o in outcomes),
            throughput=0.0 if span <= 0 else 1000.0 * len(outcomes) / span,
            wasted_work=sum(o.wasted_work for o in outcomes),
            killed_jobs=sum(o.killed_jobs for o in outcomes),
            deadline_violations=sum(1 for o in outcomes if o.deadline_violated),
            slo_violations=sum(1 for o in outcomes if o.slo_violated),
            **extra,
        )


@dataclass(kw_only=True)
class TenantMetrics(ServiceMetrics):
    """Service metrics of one tenant over one multi-tenant run."""

    tenant: str
    credit: float = 1.0


@dataclass(kw_only=True)
class MultiTenantMetrics(ServiceMetrics):
    """Service metrics of a whole multi-tenant run, and of each tenant."""

    run_makespan: float
    #: tail stretch — the overload-management headline metric
    p99_stretch: float
    #: Jain's index over the tenants' mean stretches
    fairness: float
    rejected: int
    deferrals: int
    per_tenant: Dict[str, TenantMetrics]

    @classmethod
    def of(cls, result: SharedGridResult) -> "MultiTenantMetrics":
        span = result.makespan()
        per_tenant = {
            tenant: TenantMetrics.over(
                result.for_tenant(tenant),
                span,
                tenant=tenant,
                credit=result.credits.get(tenant, 1.0),
            )
            for tenant in result.tenants()
        }
        return cls.over(
            result.outcomes,
            span,
            run_makespan=span,
            p99_stretch=percentile([o.stretch for o in result.outcomes], 99.0),
            fairness=jain_fairness_index(
                metrics.mean_stretch for metrics in per_tenant.values()
            ),
            rejected=result.rejected_count,
            deferrals=result.deferral_count,
            per_tenant=per_tenant,
        )


@dataclass(kw_only=True)
class MultiWorkflowPoint(MultiTenantMetrics):
    """One cell of the multi-tenant matrix: (scenario, tenants, rate, policy, strategy)."""

    scenario: str
    tenants: int
    arrival_rate: float
    policy: str
    strategy: str
    admission: bool


@dataclass
class MultiTenantCaseResult:
    """One multi-tenant run: its config, raw result and metrics."""

    config: MultiTenantConfig
    result: SharedGridResult
    metrics: MultiTenantMetrics

    @property
    def rejection_rate(self) -> float:
        """Rejected over offered (admitted + rejected) workflows."""
        offered = self.metrics.workflows + self.metrics.rejected
        return 0.0 if offered == 0 else self.metrics.rejected / offered

    def as_dict(self) -> Dict[str, object]:
        """The overload ledger's cell: params, metrics, rejection rate, credits."""
        return dict(
            asdict(self.metrics),
            params=self.config.as_params(),
            rejection_rate=self.rejection_rate,
            credits=dict(sorted(self.result.credits.items())),
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
    return MultiTenantCaseResult(
        config=config, result=result, metrics=MultiTenantMetrics.of(result)
    )


def multi_tenant_cell(config: MultiTenantConfig) -> MultiWorkflowPoint:
    """One multi-tenant case as a point of the matrix.

    A sweep keeps one seed across cells, so a tenant's arrival stream is
    identical in every scenario/policy/strategy cell with the same tenant
    count: rows differ by the dynamics, the policy and the replanning
    heuristic, not by workload sampling noise.  ``strategy`` names a
    registered scheduler with the ``reschedule`` interface (``aheft``,
    ``cpop``, ``heft_dup``, ...) that every tenant replans with.
    """
    metrics = run_multi_tenant_case(config).metrics
    return MultiWorkflowPoint(
        **vars(metrics),
        scenario=config.scenario,
        tenants=config.tenants,
        arrival_rate=config.arrival_rate,
        policy=config.policy,
        strategy=config.strategy,
        admission=config.admission,
    )
