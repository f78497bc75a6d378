"""Shared-grid execution: the one adaptive engine, for one workflow or many.

:class:`SharedGridExecutor` drives a
:class:`~repro.core.multi_tenant.MultiTenantPlanner` through time: workflow
arrivals (a :class:`~repro.workload.streams.WorkloadStream`'s output), the
shared pool's membership events, performance-profile changes and the
Performance Monitor's deviation trigger share one
:class:`~repro.simulation.event_core.EventCore`, and every tenant books
slots on the *same* resource timelines.  It alone runs the paper's
Fig. 1 cycle: ``repro.run(..., mode="adaptive")`` is this grid
with one workflow registered at t=0
(:class:`~repro.core.adaptive.AdaptiveReschedulingLoop`).  At one instant
grid events come first (priority 0 — every unfinished workflow steps, in
policy order, around the others' bookings), then same-instant arrivals in
``seq`` order.  Departures kill running jobs across all tenants (wasted
work is attributed to the tenant that lost it) and force the affected
workflows to re-book on survivors.

Ground truth
------------
Under accurate estimates an adopted booking *is* the execution.  With an
``error_model`` (:class:`~repro.workflow.costs.ErrorModel`) each workflow
executes under its own truth — the model scoped by the workflow key, so
two tenants running the same DAG draw independent actuals — and
re-estimates its plans with its own predictor over a fresh history.
Every event then (1) advances each unfinished workflow's truth to the
clock, (2) steps the workflows — a deviation event only the ones whose
completion deviated, labelled ``"deviation"`` — and (3) replays the
unfinished plans jointly (:func:`~repro.core.adaptive.project_actuals`,
tied in ``seq`` order, started executions as facts, nothing starting
before the clock): bookings are reservations, and deviations push a job
and everything queued behind it on the shared resource, across tenants,
later.  One deviation trigger
serves the grid — the earliest completion missing its booking by more
than 10 % of the booked duration, armed only when it strictly precedes
the next grid event (minus ``TIME_EPS``) and re-armed after every event.
Completions are observed: ``completed_at``, stretch and the credit fold
read the actual finish, and :attr:`WorkflowOutcome.actual_schedule`
carries the executed timeline.  Admission, saturation, retry points and
the booking directory keep reading plans.  A null error model samples the
estimates themselves: the bookings are the execution.

The result records one :class:`WorkflowOutcome` per arrival with the
multi-tenancy metrics of the scheduling literature: **flow time**
(completion − arrival), **stretch** (flow time relative to the span the
workflow was predicted to need alone on the pool it arrived to), kills and
wasted work.  :meth:`SharedGridResult.shared_timelines` rebuilds the joint
timelines from every tenant's final schedule and raises if two tenants ever
held the same slot — the cross-tenant exclusivity invariant the test suite
checks under accurate estimates (in a noisy run the plans carry observed
facts, and the executed timelines are the ones that never share a slot).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.core.credit import CreditLedger
from repro.core.history import PerformanceHistoryRepository
from repro.core.predictor import Predictor
from repro.resources.pool import PoolEvent, ResourcePool
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import ResourceTimeline, Schedule, TIME_EPS
from repro.simulation.event_core import EventCore, EventKind
from repro.workflow.costs import CostModel, ErrorModel, PerturbedCostModel, price_columns
from repro.workload.streams import WorkflowArrival

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.adaptive import ReschedulingDecision
    from repro.core.multi_tenant import ActiveWorkflow, MultiTenantPlanner

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
    #: the executed timeline when an error model sampled the truth
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
    error_model:
        Optional :class:`~repro.workflow.costs.ErrorModel`: every workflow
        then executes under its own sampled truth and the grid runs the
        Performance Monitor (see the module docstring).
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

    #: the monitor's deviation threshold: a completion missing its booking
    #: by more than this fraction of the booked duration is an event
    _deviation_threshold: Optional[float] = 0.1

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

    # ------------------------------------------------------------------
    def _releases(self) -> List[Tuple[CostModel, float]]:
        """The estimate model of every workflow the run will plan, with the
        time it is released to the grid: each arrival at its arrival time."""
        return [(arrival.case.costs, arrival.time) for arrival in self.arrivals]

    def _open(self, planner: "MultiTenantPlanner") -> None:
        """Register the workflows present when the grid opens (none: every
        workflow comes through an arrival event)."""

    def _truth(self, wf: "ActiveWorkflow") -> Optional[Tuple[CostModel, Optional[Predictor]]]:
        """The truth ``wf`` executes under and the predictor re-estimating
        its plans; ``None`` when its bookings are the execution."""
        error = self.error_model
        if error is None or error.is_null:
            return None
        scope = f"{error.scope}/{wf.key}" if error.scope else wf.key
        truth = PerturbedCostModel(wf.costs, error.scoped(scope))
        return truth, Predictor(PerformanceHistoryRepository())

    def _register(self, planner, arrival, clock: float, planned) -> "ActiveWorkflow":
        """Admit a planned arrival under its truth (:meth:`_truth`)."""
        wf = planner.register(arrival, clock, planned)
        monitored = self._truth(wf)
        if monitored is not None:
            wf.monitor(*monitored, replan_on_deviation=self._deviation_threshold)
        return wf

    def run(self) -> SharedGridResult:
        """Run every workflow to completion and return the outcomes.

        Before the first event, the columns of every workflow the run will
        plan are priced ahead in one
        :func:`~repro.workflow.costs.price_columns` pass: each workflow's
        estimate model on every pool resource that has not left the grid
        by the workflow's release (:meth:`_releases`), which is every
        resource it can plan on, however long it is deferred.  The prices
        are the ones each plan would draw on first read.
        """
        # imported here: repro.core.multi_tenant imports repro.core.adaptive,
        # which imports this module
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
        # one membership event per instant (``ResourcePool.events``
        # aggregates them); a performance change without a membership
        # change is a trigger of its own (``None``)
        events = self.pool.events()
        triggers: Dict[float, Optional[PoolEvent]] = {}
        for event in events:
            if event.time in triggers:
                raise ValueError(
                    f"the pool reports two membership events at t={event.time}; "
                    "events must aggregate per instant"
                )
            triggers[event.time] = event
        if self.perf_profile is not None:
            for time in self.perf_profile.change_times():
                triggers.setdefault(time, None)
        grid_times = sorted(triggers)
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
        core = EventCore()
        #: grid events processed so far, and the clock of the last event
        passed, last_clock = 0, float("-inf")
        deviation = None

        def arm() -> None:
            """(Re)arm the grid's one deviation trigger.

            The next deviating completion becomes an event only when it
            *strictly* precedes the next grid event (minus ``TIME_EPS``): on
            a tie the grid event is the trigger and absorbs the deviation.
            """
            nonlocal deviation
            if deviation is not None:
                deviation.cancel()
                deviation = None
            due = planner.next_deviation(last_clock)
            if due is not None and (
                passed == len(grid_times) or due[0] < grid_times[passed] - TIME_EPS
            ):
                at, workflows = due
                deviation = core.post(
                    at,
                    lambda: on_event(at, lambda: planner.step(at, None, workflows, deviation=True)),
                    kind=EventKind.DEVIATION,
                    label="deviation",
                )

        def on_event(clock: float, react: Callable[[], None]) -> None:
            """Advance the truth to ``clock``, ``react``, replay the truth."""
            nonlocal last_clock
            planner.advance(clock)
            react()
            planner.replay(clock)
            last_clock = clock
            arm()

        def on_grid_event(clock: float, event: Optional[PoolEvent]) -> None:
            nonlocal passed
            passed += 1
            on_event(clock, lambda: planner.handle_event(clock, event))

        # One instant on the shared event core: the grid event first
        # (priority 0 — incumbents re-book around the change), then the
        # same-instant arrivals in seq order (priority 1, insertion order).
        for clock, trigger in triggers.items():
            core.post(
                clock,
                lambda c=clock, e=trigger: on_grid_event(c, e),
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

        def admit(arrival: WorkflowArrival, clock: float) -> None:
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
                self._register(planner, arrival, clock, planner.plan_arrival(arrival, clock))
                return
            retry = self._next_retry_time(planner, clock)
            action, planned = controller.evaluate(
                planner, arrival, clock, can_defer=retry is not None
            )
            if action == "admit":
                self._register(planner, arrival, clock, planned)
            elif action == "defer":
                defer(arrival, retry)

        def offer(arrival: WorkflowArrival) -> None:
            clock = core.now
            on_event(clock, lambda: admit(arrival, clock))

        for arrival in self.arrivals:
            core.post(
                arrival.time,
                lambda a=arrival: offer(a),
                kind=EventKind.ARRIVAL,
                priority=_ARRIVAL_PRIORITY,
                label=f"arrival:{arrival.key}",
            )
        price_columns(
            (costs, self.pool.not_departed_by(release)) for costs, release in self._releases()
        )
        self._open(planner)
        planner.replay(core.now)
        arm()
        core.run()

        outcomes = []
        for wf in planner.finalize():
            actual_schedule = None
            if self.error_model is not None:
                trace = wf.trace(getattr(wf.scheduler, "name", "adaptive"))
                actual_schedule = trace.to_schedule(name=f"{wf.key}-actual")
            outcomes.append(
                WorkflowOutcome(
                    key=wf.key,
                    tenant=wf.tenant,
                    kind=wf.kind,
                    seq=wf.seq,
                    arrival_time=wf.arrival_time,
                    completed_at=wf.completed_at,
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
