"""Per-tenant adaptive planning against shared residual capacity.

The paper's Planner manages one workflow on a dedicated (if changing) grid.
:class:`MultiTenantPlanner` generalises that loop to many concurrent
workflows from many tenants, all booking slots on the *same* resources;
the :class:`~repro.simulation.shared_grid.SharedGridExecutor` drives it
through time, for one workflow (the paper's single-workflow run) or many:

* every admitted workflow is an :class:`ActiveWorkflow`: an
  :class:`~repro.core.adaptive.AdaptiveWorkflow` (its own scheduler, plan,
  decisions, kills and, in a noisy run, its ground truth and predictor)
  plus tenant bookkeeping.  A grid event runs each one's
  :meth:`~repro.core.adaptive.AdaptiveWorkflow.step`, a deviating
  completion only the deviating ones'; in a noisy run the planner also
  advances every workflow's truth (:meth:`MultiTenantPlanner.advance`),
  replays the plans jointly (:meth:`MultiTenantPlanner.replay`) and finds
  the monitor's next trigger (:meth:`MultiTenantPlanner.next_deviation`);
* each step sees every *other* workflow's current bookings as busy blocks
  (the ``busy`` parameter of :func:`~repro.scheduling.frame.replan`), so
  plans are pairwise non-overlapping by construction: a workflow always
  plans around the residual capacity left by the rest.  The bookings live
  in one :class:`~repro.scheduling.bookings.BookingDirectory`, updated
  when a workflow registers, when it leaves for its step and re-books its
  repaired or adopted plan, and when it completes; planning frames and
  admission control read slices of it instead of re-walking every
  schedule.  Plans, not the truth, fill the directory: nothing that plans
  reads the truth of work that has not started;
* a **policy** decides the order in which workflows step when a grid
  event makes everyone move — and therefore who gets first pick of the
  residual gaps:

  ``fifo``
      submission order (earliest arrival first);
  ``fair_share``
      ascending consumed-processor-time per tenant weight — the tenant
      that has received the least service (relative to its entitlement)
      books first;
  ``rank_priority``
      descending remaining predicted span — the workflow with the longest
      remaining critical path books first (an SRPT-inverse interleave that
      protects large workflows from starvation by small ones);
  ``credit_drf``
      ``fair_share`` with credit-coupled weights ``w_t = weight_t *
      (0.5 + 0.5 * credit_t)``: each tenant's entitlement is damped by its
      :class:`~repro.core.credit.CreditLedger` score, which decays as the
      tenant's completions violate their deadlines/SLOs or run at high
      tail stretch.  With one booked resource dimension (processor time)
      this *is* weighted DRF — the dominant share is the time share — so
      misbehaving tenants lose at most half their entitlement and the
      grid degrades their service instead of everyone's.

With a single tenant and a single workflow arriving at time 0, every
policy degenerates to the paper's single-workflow loop: a one-tenant run
equals ``repro.run(..., mode="adaptive")`` bit for bit, noisy or not —
the differential test suite (``tests/test_differential.py``) enforces
this.

A repair (after a performance change or an observed deviation) re-times a
plan around the other workflows' bookings too
(:func:`~repro.core.adaptive.repair_schedule` with ``busy``), so the
accept rule compares two plans that both fit the shared grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import adaptive
from repro.core.adaptive import AdaptiveWorkflow, resolve_strategy
from repro.core.credit import CreditLedger
from repro.resources.pool import PoolEvent, ResourcePool
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import Schedule, TIME_EPS
from repro.scheduling.bookings import BookingDirectory, BusyView
from repro.workload.streams import WorkflowArrival

__all__ = [
    "POLICIES",
    "ActiveWorkflow",
    "MultiTenantPlanner",
    "PlannedArrival",
]

#: replanning-order policies of the shared grid
POLICIES = ("fifo", "fair_share", "rank_priority", "credit_drf")


@dataclass(eq=False, kw_only=True)
class ActiveWorkflow(AdaptiveWorkflow):
    """One admitted workflow: its adaptive step plus tenant bookkeeping."""

    key: str
    tenant: str
    seq: int
    arrival_time: float
    kind: str
    #: predicted span had the workflow run alone on the pool it arrived to
    dedicated_span: float
    completed_at: Optional[float] = None
    #: absolute completion deadline (``arrival + deadline_factor * span``)
    deadline: Optional[float] = None
    #: per-workflow stretch SLO target (``TenantSpec.slo_stretch``)
    slo_stretch: Optional[float] = None
    #: ``(plan, [(start, finish), ...])`` of :meth:`consumed_time`
    _spans: Optional[tuple] = field(default=None, init=False, repr=False)

    def remaining_span(self, clock: float) -> float:
        return max(0.0, self.schedule.makespan() - clock)

    def consumed_time(self, clock: float) -> float:
        """Processor time this workflow has consumed by ``clock``.

        Counts duplicates too (``all_assignments``): duplication-based
        strategies occupy real slots, and the fair-share/credit ledgers
        must charge the tenant for them exactly as ``busy_view`` books
        them against everyone else.  The spans are read once per plan.
        """
        spans = self._spans
        if spans is None or spans[0] is not self.schedule:
            spans = self._spans = (
                self.schedule,
                [(a.start, a.finish) for a in self.schedule.all_assignments()],
            )
        return sum([max(0.0, min(finish, clock) - start) for start, finish in spans[1]])

    def stretch_at(self, completed_at: float) -> float:
        """Achieved stretch when completing at ``completed_at``."""
        if self.dedicated_span <= TIME_EPS:
            return 1.0
        return (completed_at - self.arrival_time) / self.dedicated_span

    def deadline_violated_at(self, completed_at: float) -> bool:
        return self.deadline is not None and completed_at > self.deadline + TIME_EPS

    def slo_violated_at(self, completed_at: float) -> bool:
        return (
            self.slo_stretch is not None
            and self.stretch_at(completed_at) > self.slo_stretch + TIME_EPS
        )


@dataclass(frozen=True)
class PlannedArrival:
    """A tentative plan for an arrival, not yet registered with the planner."""

    scheduler: AHEFTScheduler
    #: the plan around the other workflows' bookings; ``None`` when the
    #: :meth:`MultiTenantPlanner.plan_arrival` gate closed before it was made
    schedule: Optional[Schedule]
    #: predicted span had the workflow run alone on the pool it arrived to
    dedicated_span: float
    #: the other workflows' bookings the plan was made around
    #: (:meth:`MultiTenantPlanner.busy_view` at the arrival clock)
    busy: BusyView


def _replanning(factory: Callable[[], object]):
    """``factory()``, checked to provide the ``reschedule`` interface."""
    return resolve_strategy(factory(), require="reschedule")


class MultiTenantPlanner:
    """AHEFT rescheduling of many workflows over one shared resource pool.

    Parameters
    ----------
    pool:
        The shared :class:`~repro.resources.pool.ResourcePool` (typically a
        materialised scenario's pool).
    perf_profile:
        Optional scenario :class:`~repro.scenarios.base.PerformanceProfile`
        applied to every tenant's cost model.
    policy:
        One of :data:`POLICIES`; see the module docstring.
    tenant_weights:
        Fair-share weights per tenant (default 1.0 each).
    scheduler_factory:
        Called once per planned arrival; must produce an object with the
        ``reschedule`` interface of :class:`AHEFTScheduler`.  Every product
        goes through :func:`~repro.core.adaptive.resolve_strategy`, so a
        plan-once strategy raises its named ``ValueError`` before any
        planning.
    strategy:
        Alternative to ``scheduler_factory``: the name of any registered
        scheduler with the ``reschedule`` interface (see
        ``repro.registry.available("scheduler")``) — every tenant then
        replans with that heuristic instead of AHEFT, the strategy-ablation
        hook of the multi-tenant tournament.
    accept_only_if_better:
        The accept rule of paper Fig. 2 line 7
        (:meth:`~repro.core.adaptive.AdaptiveWorkflow.step`).
    credit_ledger:
        Optional :class:`~repro.core.credit.CreditLedger` fed by every
        completion (deadline/SLO violations and stretch).  The
        ``credit_drf`` policy creates one automatically when omitted; the
        other policies record into it when provided but never read it.
    """

    def __init__(
        self,
        pool: ResourcePool,
        *,
        perf_profile=None,
        policy: str = "fifo",
        tenant_weights: Optional[Dict[str, float]] = None,
        scheduler_factory: Optional[Callable[[], AHEFTScheduler]] = None,
        strategy: Optional[str] = None,
        accept_only_if_better: bool = True,
        credit_ledger: Optional[CreditLedger] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if strategy is not None:
            if scheduler_factory is not None:
                raise ValueError(
                    "pass either strategy= or scheduler_factory=, not both"
                )
            scheduler_factory = partial(resolve_strategy, strategy, require="reschedule")
            scheduler_factory()  # validate early
        elif scheduler_factory is None:
            scheduler_factory = AHEFTScheduler
        else:
            scheduler_factory = partial(_replanning, scheduler_factory)
        self.pool = pool
        self.perf_profile = perf_profile
        self.policy = policy
        self.tenant_weights = dict(tenant_weights or {})
        self.scheduler_factory = scheduler_factory
        self.accept_only_if_better = accept_only_if_better
        if credit_ledger is None and policy == "credit_drf":
            credit_ledger = CreditLedger()
        self.credit = credit_ledger
        self._active: Dict[str, ActiveWorkflow] = {}
        #: the admitted workflows not completed yet, in admission order
        self._unfinished: Dict[str, ActiveWorkflow] = {}
        #: every admitted workflow's live bookings, per resource
        self._bookings = BookingDirectory()
        #: per tenant: its admitted workflows in admission order, how many
        #: of them lead with a final consumption, and their summed consumption
        self._served: Dict[str, list] = {}
        self._served_count = 0
        #: consumption of the workflows whose consumption is final, and the
        #: last finish of a plan, per workflow key
        self._final_consumption: Dict[str, float] = {}
        self._last_finish: Dict[str, tuple] = {}
        #: the joint truth replay kept between events, and whether anything
        #: it reads changed since the last one (a plan, a kill, a member)
        self._replay = adaptive.ReplayState()
        self._replay_stale = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def workflows(self) -> List[ActiveWorkflow]:
        """Every admitted workflow, in admission order."""
        return list(self._active.values())

    def unfinished(self) -> List[ActiveWorkflow]:
        """Every admitted workflow not completed yet, in admission order."""
        return list(self._unfinished.values())

    def busy_view(self, exclude_key: Optional[str], clock: float) -> BusyView:
        """Every *other* workflow's bookings — the shared-timeline residual.

        A snapshot of the booking directory
        (:class:`~repro.scheduling.bookings.BusyView`): per resource, the
        live ``(start, finish)`` bookings of every booked workflow but
        ``exclude_key``, duplicates included.  Bookings that end at or
        before ``clock`` cannot constrain placement (the schedulers place
        new work at or after ``clock``) and workflows finished by
        ``clock`` (:meth:`ActiveWorkflow.finished_by`) hold nothing; the
        directory prunes both, with the same ``TIME_EPS`` tolerance, so
        the view stays small over long arrival streams.  Planning frames
        cut their foreign timelines from it and admission measures
        saturation on it without re-walking any schedule.  Clocks must not
        go backwards between views.
        """
        return self._bookings.view(clock, exclude=exclude_key)

    def _weight(self, tenant: str) -> float:
        weight = float(self.tenant_weights.get(tenant, 1.0))
        if self.policy == "credit_drf" and self.credit is not None:
            weight *= self.credit.weight(tenant)
        return weight

    def _served_by_tenant(self, clock: float) -> Dict[str, float]:
        """Processor time consumed per tenant by ``clock``: the left fold of
        :meth:`ActiveWorkflow.consumed_time` over its workflows in admission
        order.

        A workflow's consumption is final once its plan can no longer
        change (it finished by ``clock``) and ``clock`` has passed the
        plan's last finish.  Each tenant keeps the fold over its longest
        final prefix and continues it from there, reading the consumption
        of final workflows further on from a cache; clocks must not go
        backwards (an earlier one folds from scratch).
        """
        if self._served_count != len(self._active):
            # the workflows admitted since the last call join their tenants
            for wf in list(self._active.values())[self._served_count:]:
                self._served.setdefault(wf.tenant, [[], 0, 0.0, clock])[0].append(wf)
            self._served_count = len(self._active)
        final = self._final_consumption
        served: Dict[str, float] = {}
        for tenant, ledger in self._served.items():
            workflows, frozen, total, at = ledger
            if clock < at:
                frozen, total = 0, 0.0
                for wf in workflows:
                    final.pop(wf.key, None)
            prefix = True
            for wf in workflows[frozen:]:
                consumed = final.get(wf.key)
                if consumed is None:
                    consumed = wf.consumed_time(clock)
                    if self._consumption_final(wf, clock):
                        final[wf.key] = consumed
                    else:
                        prefix = False
                total = total + consumed
                if prefix:
                    frozen += 1
                    ledger[2] = total
            ledger[1], ledger[3] = frozen, clock
            served[tenant] = total
        return served

    def _consumption_final(self, wf: ActiveWorkflow, clock: float) -> bool:
        """Whether ``wf``'s plan can no longer change and ``clock`` has
        passed its last finish, duplicates included."""
        if wf.completed_at is None and not wf.finished_by(clock):
            return False
        last = self._last_finish.get(wf.key)
        if last is None or last[0] is not wf.schedule:
            last = self._last_finish[wf.key] = (
                wf.schedule,
                max((a.finish for a in wf.schedule.all_assignments()), default=0.0),
            )
        return clock >= last[1]

    def replan_order(
        self, candidates: Sequence[ActiveWorkflow], clock: float
    ) -> List[ActiveWorkflow]:
        """Order in which ``candidates`` replan at ``clock`` (policy-driven)."""
        if len(candidates) < 2:
            return list(candidates)
        if self.policy == "fifo":
            return sorted(candidates, key=lambda wf: wf.seq)
        if self.policy in ("fair_share", "credit_drf"):
            served = self._served_by_tenant(clock)
            return sorted(
                candidates,
                key=lambda wf: (
                    served.get(wf.tenant, 0.0) / self._weight(wf.tenant),
                    wf.seq,
                ),
            )
        return sorted(candidates, key=lambda wf: (-wf.remaining_span(clock), wf.seq))

    # ------------------------------------------------------------------
    # arrival
    # ------------------------------------------------------------------
    def plan_arrival(
        self,
        arrival: WorkflowArrival,
        clock: float,
        *,
        gate: Optional[Callable[[float, BusyView], bool]] = None,
    ) -> PlannedArrival:
        """Tentatively plan ``arrival`` against the residual capacity.

        Pure with respect to planner state: nothing is registered, so
        admission control can inspect the plan (predicted stretch,
        dedicated span) and walk away.  Raises ``ValueError`` when the
        pool is momentarily empty.

        The busy-free dedicated plan comes first.  ``gate`` (admission
        control's saturation test) then sees its span and the busy view;
        when it returns ``False`` the plan around the other workflows'
        bookings is never made and the result's ``schedule`` is ``None``.
        Without bookings the dedicated plan is the plan.
        """
        resources = self.pool.available_at(clock)
        if not resources:
            raise ValueError(f"no resources available at arrival time {clock}")
        workflow = arrival.case.workflow
        effective = arrival.case.costs
        if self.perf_profile is not None:
            effective = self.perf_profile.scaled_costs(effective, clock)
        scheduler = self.scheduler_factory()
        bind = getattr(scheduler, "bind_tenant_context", None)
        if bind is not None:
            # credit-aware strategies (the flow scheduler's ``credit`` cost
            # model) bid with the tenant's fair-share weight
            weight = (
                self.credit.weight(arrival.tenant)
                if self.credit is not None
                else 1.0
            )
            scheduler = bind(credit_weight=weight)
        busy = self.busy_view(None, clock)
        plan = scheduler.reschedule(
            workflow, effective, resources, clock=clock, previous_schedule=None
        )
        dedicated_span = plan.makespan() - clock
        if gate is not None and not gate(dedicated_span, busy):
            plan = None
        elif busy:
            plan = scheduler.reschedule(
                workflow,
                effective,
                resources,
                clock=clock,
                previous_schedule=None,
                busy=busy,
            )
        return PlannedArrival(
            scheduler=scheduler, schedule=plan, dedicated_span=dedicated_span, busy=busy
        )

    def register(
        self, arrival: WorkflowArrival, clock: float, planned: PlannedArrival
    ) -> ActiveWorkflow:
        """Register a previously planned arrival as an active workflow."""
        if planned.schedule is None:
            raise ValueError(f"workflow {arrival.key!r} has no plan to register")
        if arrival.key in self._active:
            raise ValueError(f"workflow {arrival.key!r} was already admitted")
        deadline_factor = getattr(arrival, "deadline_factor", None)
        deadline = (
            None
            if deadline_factor is None
            else arrival.time + deadline_factor * planned.dedicated_span
        )
        active = ActiveWorkflow(
            arrival.case.workflow,
            arrival.case.costs,
            planned.scheduler,
            planned.schedule,
            perf_profile=self.perf_profile,
            accept_only_if_better=self.accept_only_if_better,
            key=arrival.key,
            tenant=arrival.tenant,
            seq=arrival.seq,
            arrival_time=arrival.time,
            kind=arrival.kind,
            dedicated_span=planned.dedicated_span,
            deadline=deadline,
            slo_stretch=getattr(arrival, "slo_stretch", None),
        )
        self._enter(active, clock)
        return active

    def _enter(self, wf: ActiveWorkflow, clock: float) -> None:
        """Admit ``wf`` and book its schedule in the directory."""
        self._active[wf.key] = wf
        self._unfinished[wf.key] = wf
        self._bookings.book(wf.key, wf.schedule, clock)
        self._replay_stale = True

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def handle_event(self, clock: float, event: Optional[PoolEvent]) -> None:
        """Step every unfinished workflow at a pool/performance event."""
        self.step(clock, event, self.unfinished())

    def step(
        self,
        clock: float,
        event: Optional[PoolEvent],
        workflows: Sequence[ActiveWorkflow],
        *,
        deviation: bool = False,
    ) -> None:
        """Step ``workflows`` at ``clock``, in policy order.

        Each step is :meth:`~repro.core.adaptive.AdaptiveWorkflow.step`,
        planned around the other workflows' current bookings: earlier
        workflows book residual gaps that later ones then avoid.  A
        workflow finished by ``clock`` completes instead.
        """
        resources = self.pool.available_at(clock)
        if not resources:
            return
        for wf in self.replan_order(workflows, clock):
            if wf.finished_by(clock):
                self._mark_completed(wf)
                continue
            # the workflow steps around everyone else: its own bookings
            # leave the directory until its turn is over
            self._bookings.release(wf.key)
            busy = self.busy_view(wf.key, clock)
            plan, kills = wf.schedule, len(wf.kills)
            wf.step(clock, event, resources, busy=busy, deviation=deviation)
            self._bookings.book(wf.key, wf.schedule, clock)
            if wf.schedule is not plan or len(wf.kills) != kills:
                self._replay_stale = True

    # ------------------------------------------------------------------
    # the Performance Monitor (noisy runs)
    # ------------------------------------------------------------------
    def advance(self, clock: float) -> None:
        """Advance every unfinished workflow's truth to ``clock``."""
        for wf in self._unfinished.values():
            if wf.actual is not None:
                wf.actual.advance(clock)

    def replay(self, clock: float) -> None:
        """Replay the unfinished workflows' plans under their truth, jointly:
        one :func:`~repro.core.adaptive.project_actuals` pass, tied in
        ``seq`` order, nothing starting before ``clock``.

        The pass is incremental (the planner keeps one
        :class:`~repro.core.adaptive.ReplayState`): it re-walks only the
        bookings a changed plan, a kill, a workflow entering or leaving, or
        a moved queue front reaches, and each workflow's monitor takes just
        the executions whose projection changed.  When none of the first
        three happened since the last pass, the pass is skipped: after
        :meth:`advance` nothing not yet started lies before the clock, so
        the clock floor cannot bind and the projection minus what started
        is what a new pass would return.  Not with duplicate copies in a
        plan, whose replay depends on the walk order and the facts
        (:attr:`~repro.core.adaptive.ReplayState.order_dependent`).
        """
        if not self._replay_stale and not self._replay.order_dependent:
            return
        self._replay_stale = False
        noisy = sorted(
            (wf for wf in self._unfinished.values() if wf.actual is not None),
            key=lambda wf: wf.seq,
        )
        if noisy:
            projections = adaptive.project_actuals(
                [(wf.workflow, wf.schedule, wf.actual.facts(), wf.actual.truth) for wf in noisy],
                perf_profile=self.perf_profile,
                clock=clock,
                state=self._replay,
            )
            for wf, projected, updated in zip(noisy, projections, self._replay.updated):
                wf.actual.track(projected, updated)

    def next_deviation(self, after: float) -> Optional[Tuple[float, List[ActiveWorkflow]]]:
        """The earliest deviating completion after ``after`` over every
        unfinished workflow, and the workflows deviating within
        ``TIME_EPS`` of it.

        Each monitor answers from its own heap of deviating executions
        (:meth:`~repro.core.adaptive.ActualExecution.next_deviation`),
        refreshed only where a replay or a new plan changed something, so
        this is one heap peek per unfinished workflow; ``after`` is the
        grid clock and must not go backwards.
        """
        found = [
            (wf.actual.next_deviation(wf.schedule, after), wf)
            for wf in self._unfinished.values()
            if wf.actual is not None
        ]
        found = [(at, wf) for at, wf in found if at is not None]
        if not found:
            return None
        first = min(at for at, _ in found)
        return first, [wf for at, wf in found if at <= first + TIME_EPS]

    # ------------------------------------------------------------------
    def _mark_completed(self, wf: ActiveWorkflow) -> None:
        """Complete ``wf`` at its observed finish and feed the credit fold."""
        completed_at = wf.completion()
        wf.completed_at = completed_at
        del self._unfinished[wf.key]
        self._bookings.release(wf.key)
        self._replay_stale = True
        if self.credit is not None:
            self.credit.record_completion(
                wf.tenant,
                stretch=wf.stretch_at(completed_at),
                deadline_violated=wf.deadline_violated_at(completed_at),
                slo_violated=wf.slo_violated_at(completed_at),
            )

    def finalize(self) -> List[ActiveWorkflow]:
        """Mark every remaining workflow completed at its observed finish.

        Stragglers fold into the credit ledger in completion order (ties by
        admission ``seq``), so end-of-run credit is the same as if the run
        had kept observing completions chronologically.
        """
        pending = sorted(
            self._unfinished.values(), key=lambda wf: (wf.completion(), wf.seq)
        )
        for wf in pending:
            self._mark_completed(wf)
        return self.workflows()
