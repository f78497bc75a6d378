"""Shared-grid execution of multi-tenant workflow streams.

:class:`SharedGridExecutor` drives a
:class:`~repro.core.multi_tenant.MultiTenantPlanner` through time: workflow
arrivals (a :class:`~repro.workload.streams.WorkloadStream`'s output), the
shared pool's membership events, and performance-profile changes are merged
into one chronological trigger sequence, and every tenant books slots on
the *same* resource timelines.

Execution is analytic, like the paper's treatment of static and adaptive
strategies under accurate estimates: an adopted booking *is* the execution
(jobs start and finish exactly as booked), so the only events on the
shared :class:`~repro.simulation.event_core.EventCore` are the sources of
surprise — grid events at priority 0, same-instant arrivals behind them —
and the planner absorbs each by replanning.  Departures kill
running jobs across all tenants (wasted work is attributed to the tenant
that lost it) and force the affected workflows to re-book on survivors.

The result records one :class:`WorkflowOutcome` per arrival with the
multi-tenancy metrics of the scheduling literature: **flow time**
(completion − arrival), **stretch** (flow time relative to the span the
workflow was predicted to need alone on the pool it arrived to), kills and
wasted work.  :meth:`SharedGridResult.shared_timelines` rebuilds the joint
timelines from every tenant's final schedule and raises if two tenants ever
held the same slot — the cross-tenant exclusivity invariant the test suite
checks (for scenarios without performance changes; see
:mod:`repro.core.multi_tenant` for the perf-repair approximation).

Stochastic ground truth
-----------------------
An optional ``error_model`` (:class:`~repro.workflow.costs.ErrorModel`)
replays every tenant's final bookings with sampled *actual* durations
after planning completes, in one
:func:`~repro.core.adaptive.project_actuals` pass over the shared
timelines — the same reservation replay the single-workflow adaptive
loop uses.  Bookings are reservations (a job never starts before its
booked slot), and deviations push it — and everything queued behind it
on the shared resource, across tenants — later.  Duplicate copies
(duplication-based strategies) are replayed too, so a consumer reads a
local copy once it has run.  Each workflow's truth is namespaced by its
key, so two tenants running the same DAG draw independent actuals.
``completed_at`` then reports the achieved completion (flow time and
stretch become actual metrics) and :attr:`WorkflowOutcome.actual_schedule`
carries the replayed timeline, duplicates included.  With a null error
model the replay reproduces the booked times bit for bit.  Known
approximation, matching the planner's: the replay does not re-kill work
a deviation pushes past a later departure — the planner already
replanned at the departure based on booked times.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.core.credit import CreditLedger
from repro.resources.pool import ResourcePool
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import ResourceTimeline, Schedule, TIME_EPS
from repro.simulation.event_core import EventCore, EventKind
from repro.workflow.costs import ErrorModel, PerturbedCostModel
from repro.workload.streams import WorkflowArrival

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.adaptive import ReschedulingDecision

__all__ = ["SharedGridExecutor", "SharedGridResult", "WorkflowOutcome"]

#: Event priority of workflow arrivals: after the same-instant grid event,
#: so newcomers are admitted against the updated residual capacity.
_ARRIVAL_PRIORITY = 1


@dataclass(frozen=True)
class WorkflowOutcome:
    """Final record of one workflow's run on the shared grid."""

    key: str
    tenant: str
    kind: str
    seq: int
    arrival_time: float
    completed_at: float
    #: predicted span had the workflow run alone on the pool it arrived to
    dedicated_span: float
    schedule: Schedule
    decisions: List["ReschedulingDecision"] = field(default_factory=list)
    wasted_work: float = 0.0
    killed_jobs: int = 0
    #: the replayed actual timeline when an error model sampled the truth
    actual_schedule: Optional[Schedule] = None
    #: absolute completion deadline (``None`` when the tenant set none)
    deadline: Optional[float] = None
    #: stretch SLO target (``None`` when the tenant set none)
    slo_stretch: Optional[float] = None

    @property
    def flow_time(self) -> float:
        """Time from submission to completion (sojourn time)."""
        return self.completed_at - self.arrival_time

    @property
    def stretch(self) -> float:
        """Flow time relative to the dedicated-grid span (1.0 = no slowdown)."""
        if self.dedicated_span <= TIME_EPS:
            return 1.0
        return self.flow_time / self.dedicated_span

    @property
    def reschedule_count(self) -> int:
        return sum(1 for decision in self.decisions if decision.adopted)

    @property
    def deadline_violated(self) -> bool:
        return self.deadline is not None and self.completed_at > self.deadline + TIME_EPS

    @property
    def slo_violated(self) -> bool:
        return self.slo_stretch is not None and self.stretch > self.slo_stretch + TIME_EPS


@dataclass
class SharedGridResult:
    """Everything a multi-tenant run produced, per workflow."""

    policy: str
    outcomes: List[WorkflowOutcome]
    #: admit/defer/reject log (empty when admission control was off)
    admission: List[AdmissionDecision] = field(default_factory=list)
    #: final per-tenant credit scores (empty when no ledger was attached)
    credits: Dict[str, float] = field(default_factory=dict)

    def tenants(self) -> List[str]:
        """Tenant names in first-arrival order."""
        seen: List[str] = []
        for outcome in self.outcomes:
            if outcome.tenant not in seen:
                seen.append(outcome.tenant)
        return seen

    def for_tenant(self, tenant: str) -> List[WorkflowOutcome]:
        return [outcome for outcome in self.outcomes if outcome.tenant == tenant]

    def makespan(self) -> float:
        """Completion time of the last workflow (0.0 for an empty run)."""
        return max((outcome.completed_at for outcome in self.outcomes), default=0.0)

    def total_wasted_work(self) -> float:
        return sum(outcome.wasted_work for outcome in self.outcomes)

    def total_killed_jobs(self) -> int:
        return sum(outcome.killed_jobs for outcome in self.outcomes)

    @property
    def rejected_count(self) -> int:
        """Workflows turned away outright by admission control."""
        return sum(1 for d in self.admission if d.action == "reject")

    @property
    def deferral_count(self) -> int:
        """Failed admission offers (one arrival may defer several times)."""
        return sum(1 for d in self.admission if d.action == "defer")

    def rejected_keys(self) -> List[str]:
        return [d.key for d in self.admission if d.action == "reject"]

    def deadline_violations(self) -> int:
        return sum(1 for o in self.outcomes if o.deadline_violated)

    def slo_violations(self) -> int:
        return sum(1 for o in self.outcomes if o.slo_violated)

    def shared_timelines(self) -> Dict[str, ResourceTimeline]:
        """The joint per-resource timelines of every tenant's final schedule.

        Booking every assignment of every workflow onto one timeline per
        resource re-checks the shared-grid exclusivity invariant:
        :meth:`~repro.scheduling.base.ResourceTimeline.occupy` raises
        ``ValueError`` if two workflows ever held overlapping slots.
        """
        timelines: Dict[str, ResourceTimeline] = {}
        for outcome in self.outcomes:
            for assignment in outcome.schedule.all_assignments():
                timeline = timelines.get(assignment.resource_id)
                if timeline is None:
                    timeline = ResourceTimeline(assignment.resource_id)
                    timelines[assignment.resource_id] = timeline
                timeline.occupy(
                    assignment.start,
                    assignment.finish,
                    f"{outcome.key}:{assignment.job_id}",
                )
        return timelines


class SharedGridExecutor:
    """Run a multi-tenant arrival stream on one shared resource pool.

    Parameters
    ----------
    arrivals:
        The workflow arrivals (any order; processed chronologically with
        the stream's ``seq`` as the FIFO tiebreak).
    pool:
        The shared pool — plain, or a materialised scenario's pool whose
        availability windows encode joins and departures.
    perf_profile:
        Optional scenario performance profile shared by all tenants.
    policy, tenant_weights, scheduler_factory, strategy,
    accept_only_if_better:
        Forwarded to :class:`~repro.core.multi_tenant.MultiTenantPlanner`;
        ``strategy`` names any registered scheduler with the
        ``reschedule`` interface, making the whole shared grid replan
        with that heuristic instead of AHEFT.
    admission:
        ``None``/``False`` (default) admits every arrival as before.
        ``True`` or an :class:`~repro.core.admission.AdmissionConfig`
        puts an :class:`~repro.core.admission.AdmissionController` in
        front of the planner: overloaded arrivals are deferred to the
        next predicted capacity-release point (earliest incumbent
        completion or pool change) and rejected after ``max_deferrals``
        failed offers.  The decision log lands in
        :attr:`SharedGridResult.admission`.
    credit_ledger:
        Optional :class:`~repro.core.credit.CreditLedger` shared with the
        planner (the ``credit_drf`` policy creates one automatically);
        final scores land in :attr:`SharedGridResult.credits`.

    Trigger semantics at one instant: grid events are handled first (the
    incumbents re-book around the change), then same-instant arrivals are
    admitted in ``seq`` order against the updated residual capacity;
    re-offered (deferred) arrivals queue behind first offers at the same
    instant in posting order.  An arrival that finds the pool momentarily
    empty is deferred to the next pool change with capacity even without
    admission control — only a grid with no future capacity at all still
    raises.
    """

    def __init__(
        self,
        arrivals: Sequence[WorkflowArrival],
        pool: ResourcePool,
        *,
        perf_profile=None,
        policy: str = "fifo",
        tenant_weights: Optional[Dict[str, float]] = None,
        scheduler_factory: Optional[Callable[[], AHEFTScheduler]] = None,
        strategy: Optional[str] = None,
        accept_only_if_better: bool = True,
        error_model: Optional[ErrorModel] = None,
        admission: Optional[AdmissionConfig] = None,
        credit_ledger: Optional[CreditLedger] = None,
    ) -> None:
        self.arrivals = sorted(arrivals, key=lambda a: (a.time, a.seq, a.key))
        self.pool = pool
        self.perf_profile = perf_profile
        self.policy = policy
        self.tenant_weights = tenant_weights
        self.scheduler_factory = scheduler_factory
        self.strategy = strategy
        self.accept_only_if_better = accept_only_if_better
        self.error_model = error_model
        if admission is True:
            admission = AdmissionConfig()
        elif admission is False:
            admission = None
        self.admission = admission
        self.credit_ledger = credit_ledger

    # ------------------------------------------------------------------
    # deferral retry points
    # ------------------------------------------------------------------
    def _next_capacity_time(self, clock: float) -> Optional[float]:
        """The next pool-change instant at which capacity exists again."""
        times = self._capacity_times
        i = bisect_right(times, clock + TIME_EPS)
        return times[i] if i < len(times) else None

    def _next_retry_time(self, planner, clock: float) -> Optional[float]:
        """When a deferred arrival should be re-offered to the grid.

        The earliest point at which the residual capacity can grow: an
        incumbent workflow's predicted completion or the next pool
        membership change — whichever comes first.  ``None`` means the
        grid will never look different (rejection is final).
        """
        if not self.pool.available_at(clock):
            return self._next_capacity_time(clock)
        candidates = [
            wf.schedule.makespan()
            for wf in planner.unfinished()
            if wf.schedule.makespan() > clock + TIME_EPS
        ]
        next_event = self._next_capacity_time(clock)
        if next_event is not None:
            candidates.append(next_event)
        return min(candidates) if candidates else None

    def run(self) -> SharedGridResult:
        # imported here: repro.core.adaptive itself imports the simulation
        # package, so a module-level import would be circular
        from repro.core import adaptive
        from repro.core.multi_tenant import MultiTenantPlanner

        planner = MultiTenantPlanner(
            self.pool,
            perf_profile=self.perf_profile,
            policy=self.policy,
            tenant_weights=self.tenant_weights,
            scheduler_factory=self.scheduler_factory,
            strategy=self.strategy,
            accept_only_if_better=self.accept_only_if_better,
            credit_ledger=self.credit_ledger,
        )
        # merged, not last-writer-wins: two same-instant pool events (legal
        # after a ComposedScenario merge or with a custom pool) must both
        # contribute their added/removed sets
        events = self.pool.events()
        triggers = adaptive._merge_triggers(events, self.perf_profile)
        #: the pool-change instants with capacity, once per run: every
        #: deferral's retry point is a bisect into them
        self._capacity_times: List[float] = [
            time
            for time in sorted({event.time for event in events})
            if self.pool.available_at(time)
        ]
        controller = (
            AdmissionController(self.admission) if self.admission is not None else None
        )

        # One instant on the shared event core: the grid event first
        # (priority 0 — incumbents re-book around the change), then the
        # same-instant arrivals in seq order (priority 1, insertion order).
        core = EventCore()
        for clock, trigger in triggers.items():
            core.post(
                clock,
                lambda c=clock, e=trigger: planner.handle_event(c, e),
                kind=EventKind.POOL_CHANGE if trigger is not None else EventKind.PERF_CHANGE,
                label="grid-event",
            )

        def defer(arrival: WorkflowArrival, retry: float) -> None:
            core.post(
                retry,
                lambda: offer(arrival),
                kind=EventKind.ARRIVAL,
                priority=_ARRIVAL_PRIORITY,
                label=f"deferred:{arrival.key}",
            )

        def offer(arrival: WorkflowArrival) -> None:
            clock = core.now
            if controller is None:
                if not self.pool.available_at(clock):
                    retry = self._next_capacity_time(clock)
                    if retry is None:
                        raise ValueError(
                            f"no resources available at arrival time {clock}"
                            " and none joining later"
                        )
                    defer(arrival, retry)
                    return
                planner.admit(arrival, clock)
                return
            retry = self._next_retry_time(planner, clock)
            action, planned = controller.evaluate(
                planner, arrival, clock, can_defer=retry is not None
            )
            if action == "admit":
                planner.register(arrival, clock, planned)
            elif action == "defer":
                defer(arrival, retry)

        for arrival in self.arrivals:
            core.post(
                arrival.time,
                lambda a=arrival: offer(a),
                kind=EventKind.ARRIVAL,
                priority=_ARRIVAL_PRIORITY,
                label=f"arrival:{arrival.key}",
            )
        core.run()

        workflows = planner.finalize()
        actuals: Dict[str, Schedule] = {}
        if self.error_model is not None:
            # one reservation replay of every tenant's final bookings on the
            # shared timelines, tenants tied in seq order; each truth is the
            # workflow's estimates under the error model scoped to its key
            error = self.error_model
            tenants = sorted(workflows, key=lambda wf: wf.seq)
            replayed = adaptive.project_actuals(
                [
                    (
                        wf.workflow,
                        wf.schedule,
                        {},
                        PerturbedCostModel(
                            wf.costs,
                            error.scoped(f"{error.scope}/{wf.key}" if error.scope else wf.key),
                        ),
                    )
                    for wf in tenants
                ],
                perf_profile=self.perf_profile,
            )
            for wf, actual in zip(tenants, replayed):
                schedule = Schedule(name=f"{wf.key}-actual")
                for booked in wf.schedule:
                    schedule.add(actual[booked.job_id])
                for booked in wf.schedule.duplicates:
                    schedule.add_duplicate(actual[(booked.job_id, booked.resource_id)])
                actuals[wf.key] = schedule
        outcomes = []
        for wf in workflows:
            actual_schedule = actuals.get(wf.key)
            completed_at = (
                actual_schedule.makespan()
                if actual_schedule is not None
                else wf.completed_at
            )
            outcomes.append(
                WorkflowOutcome(
                    key=wf.key,
                    tenant=wf.tenant,
                    kind=wf.kind,
                    seq=wf.seq,
                    arrival_time=wf.arrival_time,
                    completed_at=completed_at,
                    dedicated_span=wf.dedicated_span,
                    schedule=wf.schedule,
                    decisions=list(wf.decisions),
                    wasted_work=wf.wasted_work,
                    killed_jobs=len({kill.job_id for kill in wf.kills}),
                    actual_schedule=actual_schedule,
                    deadline=wf.deadline,
                    slo_stretch=wf.slo_stretch,
                )
            )
        outcomes.sort(key=lambda outcome: outcome.seq)
        return SharedGridResult(
            policy=self.policy,
            outcomes=outcomes,
            admission=list(controller.decisions) if controller is not None else [],
            credits=planner.credit.credits() if planner.credit is not None else {},
        )
