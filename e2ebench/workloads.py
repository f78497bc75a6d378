"""The benchmark's workloads: how each builds its inputs from a case seed,
runs them through ``repro.run`` and checks the outputs.

Every call into the program goes through the ``repro`` namespace at call
time (``repro.generate_random_case``, not a name bound at import), so the
layer hooks of :mod:`tracing` see it.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import repro
from repro.core.admission import AdmissionConfig
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import TIME_EPS
from repro.scheduling.flow.scheduler import MinCostFlowScheduler
from repro.scheduling.validation import ScheduleValidationError
from repro.workload.streams import WorkloadStream, default_tenants


class CheckFailed(Exception):
    """A workload's output failed its correctness check."""


class ReplanProbe:
    """Times every ``reschedule`` call of the schedulers it wraps.

    The probe sits in front of the scheduler object handed to
    ``repro.run`` (``strategy=`` or ``scheduler_factory=``), so the
    untraced run pays one ``perf_counter`` pair per replan, nothing else.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def wrap(self, scheduler) -> "_TimedScheduler":
        return _TimedScheduler(scheduler, self.samples)


class _TimedScheduler:
    def __init__(self, inner, samples: List[float]) -> None:
        self._inner = inner
        self._samples = samples
        self.name = inner.name

    def schedule(self, *args, **kwargs):
        return self._inner.schedule(*args, **kwargs)

    def reschedule(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self._inner.reschedule(*args, **kwargs)
        finally:
            self._samples.append(time.perf_counter() - start)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@dataclass
class Outcome:
    """What one case run produced, in simulated units."""

    #: digest of every simulated result: equal digests = identical runs
    fingerprint: str
    makespan: float
    wasted_work: float = 0.0
    decisions: int = 0
    adopted: int = 0
    #: workflows offered to the grid (multi-tenant only)
    arrivals: int = 0
    #: admission decisions: first offers and re-offers after a deferral
    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    deferrals: int = 0
    stretches: List[float] = field(default_factory=list)


def _digest(parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()


def _schedule_rows(schedule) -> list:
    return sorted(
        (a.job_id, a.resource_id, a.start, a.finish) for a in schedule.all_assignments()
    )


def case_seeds(workload: str, seed: int, count: int) -> List[int]:
    """The run's fixed case list: ``count`` case seeds derived from ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


# ----------------------------------------------------------------------
# single-workflow workloads
# ----------------------------------------------------------------------
@dataclass
class SingleInputs:
    workflow: object
    costs: object
    pool: object
    profile: object = None
    error_model: object = None


@dataclass
class SingleWorkflow:
    """One random DAG, priced through ``generate_random_case``, run once in
    adaptive mode.

    ``growth_events`` > 0 builds the paper's growing pool
    (``ResourceChangeModel``); otherwise ``scenario`` is materialised with
    ``resources`` initial resources and ``error_model`` samples the truth.
    """

    name: str
    why: str
    v: int
    strategy: str = "aheft"
    growth_events: int = 0
    scenario: Optional[str] = None
    resources: int = 10
    error_model: Optional[str] = None
    #: nominal seconds of one iteration on the calibration host; sets the
    #: case count from ``--seconds`` (never measured at run time)
    nominal_iteration_s: float = 5.0
    #: per-layer metrics this workload must make nonzero when traced
    expected_layers: Sequence[str] = ()

    @property
    def growth_only(self) -> bool:
        return self.growth_events > 0

    def setup(self, case_seed: int) -> SingleInputs:
        params = repro.RandomDAGParameters(
            v=self.v, out_degree=20 / self.v, ccr=1.0, beta=0.5, omega_dag=300.0
        )
        case = repro.generate_random_case(params, seed=case_seed)
        profile = error_model = None
        if self.growth_only:
            pool = repro.ResourceChangeModel(
                self.resources, interval=120, fraction=0.15, max_events=self.growth_events
            ).build_pool()
        else:
            scenario_run = repro.materialize(
                repro.registry.make("scenario", self.scenario),
                initial_size=self.resources,
                seed=case_seed,
                horizon=8000.0,
            )
            pool, profile = scenario_run.pool, scenario_run.profile
        if self.error_model is not None:
            error_model = repro.registry.make("error_model", self.error_model, seed=case_seed)
        return SingleInputs(case.workflow, case.costs, pool, profile, error_model)

    def run(self, inputs: SingleInputs, probe: ReplanProbe):
        scheduler = AHEFTScheduler() if self.strategy == "aheft" else MinCostFlowScheduler()
        return repro.run(
            inputs.workflow,
            inputs.pool,
            costs=inputs.costs,
            mode="adaptive",
            strategy=probe.wrap(scheduler),
            perf_profile=inputs.profile,
            error_model=inputs.error_model,
        )

    def check(self, inputs: SingleInputs, result) -> Outcome:
        try:
            repro.validate_schedule(
                inputs.workflow, inputs.costs, result.schedule, pool=inputs.pool
            )
        except ScheduleValidationError as exc:
            raise CheckFailed(f"{self.name}: {exc}") from exc
        raw = result.raw
        if self.growth_only and result.makespan > raw.initial_makespan + TIME_EPS:
            raise CheckFailed(
                f"{self.name}: replanning on a growing pool lengthened the makespan "
                f"({raw.initial_makespan} -> {result.makespan})"
            )
        decisions = result.decisions
        return Outcome(
            fingerprint=_digest(
                (
                    result.makespan,
                    raw.initial_makespan,
                    result.wasted_work,
                    result.killed_jobs,
                    [(d.time, d.candidate_makespan, d.adopted) for d in decisions],
                    _schedule_rows(result.schedule),
                )
            ),
            makespan=result.makespan,
            wasted_work=result.wasted_work,
            decisions=len(decisions),
            adopted=sum(1 for d in decisions if d.adopted),
        )

    def sizes(self, inputs: SingleInputs) -> Dict[str, int]:
        return {
            "jobs": inputs.workflow.num_jobs,
            "edges": inputs.workflow.num_edges,
            "resources": len(inputs.pool),
            "arrivals": 0,
        }


# ----------------------------------------------------------------------
# multi-tenant workload
# ----------------------------------------------------------------------
@dataclass
class MultiInputs:
    arrivals: list
    pool: object
    profile: object


@dataclass
class MultiTenantFlash:
    """``default_tenants`` arrival streams on one shared pool under the
    ``flash_crowd`` scenario, credit-weighted fair share and admission
    control."""

    name: str
    why: str
    tenants: int = 4
    resources: int = 16
    arrival_rate: float = 0.002
    max_arrivals: int = 40
    v: int = 12
    horizon: float = 20000.0
    nominal_iteration_s: float = 2.6
    expected_layers: Sequence[str] = ()

    def setup(self, case_seed: int) -> MultiInputs:
        tenants = default_tenants(
            self.tenants,
            arrival_rate=self.arrival_rate,
            max_arrivals=self.max_arrivals,
            v=self.v,
            parallelism=max(2, self.v // 2),
        )
        arrivals = WorkloadStream(tenants, seed=case_seed, horizon=self.horizon).arrivals()
        scenario_run = repro.materialize(
            repro.registry.make("scenario", "flash_crowd"),
            initial_size=self.resources,
            seed=case_seed,
            horizon=self.horizon,
        )
        return MultiInputs(arrivals, scenario_run.pool, scenario_run.profile)

    def run(self, inputs: MultiInputs, probe: ReplanProbe):
        return repro.run(
            inputs.arrivals,
            inputs.pool,
            mode="multi",
            perf_profile=inputs.profile,
            policy="credit_drf",
            admission=AdmissionConfig(),
            scheduler_factory=lambda: probe.wrap(AHEFTScheduler()),
        )

    def check(self, inputs: MultiInputs, result) -> Outcome:
        raw = result.raw
        offered = [arrival.key for arrival in inputs.arrivals]
        ended = [outcome.key for outcome in raw.outcomes] + raw.rejected_keys()
        if len(ended) != len(set(ended)) or set(ended) != set(offered):
            lost = sorted(set(offered) - set(ended))
            twice = sorted({key for key in ended if ended.count(key) > 1})
            raise CheckFailed(
                f"{self.name}: arrivals must end exactly once "
                f"(lost {lost[:5]}, ended twice {twice[:5]})"
            )
        for outcome in raw.outcomes:
            if outcome.completed_at < outcome.arrival_time - TIME_EPS:
                raise CheckFailed(
                    f"{self.name}: {outcome.key} completed at {outcome.completed_at} "
                    f"before arriving at {outcome.arrival_time}"
                )
        try:
            raw.shared_timelines()
        except ValueError as exc:
            raise CheckFailed(f"{self.name}: cross-tenant overlap: {exc}") from exc
        decisions = result.decisions
        actions = [decision.action for decision in raw.admission]
        return Outcome(
            fingerprint=_digest(
                (
                    [
                        (o.key, o.completed_at, o.dedicated_span, _schedule_rows(o.schedule))
                        for o in raw.outcomes
                    ],
                    [(d.time, d.key, d.action) for d in raw.admission],
                    sorted(raw.credits.items()),
                )
            ),
            makespan=raw.makespan(),
            wasted_work=result.wasted_work,
            decisions=len(decisions),
            adopted=sum(1 for d in decisions if d.adopted),
            arrivals=len(inputs.arrivals),
            offered=len(actions),
            admitted=actions.count("admit"),
            rejected=raw.rejected_count,
            deferrals=raw.deferral_count,
            stretches=[outcome.stretch for outcome in raw.outcomes],
        )

    def sizes(self, inputs: MultiInputs) -> Dict[str, int]:
        return {
            "jobs": sum(a.case.workflow.num_jobs for a in inputs.arrivals),
            "edges": sum(a.case.workflow.num_edges for a in inputs.arrivals),
            "resources": len(inputs.pool),
            "arrivals": len(inputs.arrivals),
        }


_PRICING_LAYERS = ("generators.dag_s", "workflow.pricing_s", "workflow.cost_views_s")

WORKLOADS = {
    w.name: w
    for w in (
        SingleWorkflow(
            name="adaptive_grow_3k",
            why="V=3000 jobs, ~31k edges, pool growing 10->30 resources, AHEFT: the paper's "
            "loop where generation, eager+lazy pricing, ranking and min-EFT placement work",
            v=3000,
            growth_events=10,
            nominal_iteration_s=5.6,
            expected_layers=_PRICING_LAYERS
            + ("analysis.ranks_s", "scheduling.schedule_s", "scheduling.reschedule_s"),
        ),
        SingleWorkflow(
            name="uncertain_churn_200",
            why="V=200 jobs, ~2k edges, churn from 10 resources, gaussian estimate error: "
            "truth replay, predictor views, departure repairs over ~115 replans; cheap pricing",
            v=200,
            scenario="churn",
            error_model="gaussian",
            nominal_iteration_s=3.1,
            expected_layers=(
                "core.truth_replay_s",
                "core.loop_self_s",
                "simulation.events",
                "simulation.dispatch_self_s",
                "resources.pool_query_s",
                "scenarios.materialize_s",
                "scheduling.reschedule_s",
            ),
        ),
        MultiTenantFlash(
            name="multi_flash_4t",
            why="4 tenants offer ~145 DAGs (~2.2k jobs, ~3k edges) to 16 shared resources "
            "in a flash crowd; admission admits and rejects about half; credit_drf fair share",
            expected_layers=(
                "core.admission_s",
                "core.plan_arrival_s",
                "core.busy_view_s",
                "core.handle_event_s",
                "workload.arrivals_s",
                "scenarios.materialize_s",
                "generators.dag_s",
                "simulation.events",
            ),
        ),
        SingleWorkflow(
            name="flow_grow_1k",
            why="V=1000 jobs, ~10k edges, pool growing 10->20 resources, mincost_flow: the "
            "only workload through scheduling/flow; bypasses AHEFT placement",
            v=1000,
            strategy="mincost_flow",
            growth_events=5,
            nominal_iteration_s=4.5,
            expected_layers=("flow.assign_s", "flow.solve_s", "flow.solve_calls"),
        ),
    )
}
