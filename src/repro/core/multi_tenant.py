"""Per-tenant adaptive planning against shared residual capacity.

The paper's Planner manages one workflow on a dedicated (if changing) grid.
:class:`MultiTenantPlanner` generalises that loop to many concurrent
workflows from many tenants, all booking slots on the *same* resources:

* every workflow keeps its own AHEFT scheduler and its own adaptive plan,
  exactly as in :class:`~repro.core.adaptive.AdaptiveReschedulingLoop`
  (same departure-kill semantics via
  :func:`~repro.core.adaptive.apply_departure_kills`, same perf-change
  repair via :func:`~repro.core.adaptive.repair_schedule`, same
  accept-if-better rule);
* each planning pass sees every *other* workflow's current bookings as
  busy blocks (the ``busy`` parameter of
  :func:`~repro.scheduling.frame.replan`), so plans are pairwise
  non-overlapping by construction: a workflow always plans around the
  residual capacity left by the rest.  The bookings live in one
  :class:`~repro.scheduling.bookings.BookingDirectory`, updated when a
  workflow registers, when it leaves to replan at a grid event and
  re-books its repaired or adopted plan, and when it completes; planning
  frames and admission control read slices of it instead of re-walking
  every schedule;
* a **policy** decides the order in which workflows replan when a grid
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
policy degenerates to the paper's single-workflow loop and the planner is
bit-identical to ``repro.run(..., mode="adaptive")`` — the
differential test suite (``tests/test_differential.py``) enforces this.

Known approximation: after a performance change, each plan is repaired
independently (:func:`repair_schedule` does not see other tenants), so
repaired plans can transiently contend for the same slot until the next
replanning pass re-books them around each other.  The directory keeps
such overlapping bookings side by side and merges them when a frame or
the saturation estimate reads them, with the merge rules of
:mod:`repro.scheduling.bookings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.adaptive import (
    ReschedulingDecision,
    apply_departure_kills,
    decide_adoption,
    repair_schedule,
    resolve_strategy,
)
from repro.core.credit import CreditLedger
from repro.resources.pool import PoolEvent, ResourcePool
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import ExecutionState, Schedule, TIME_EPS
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


@dataclass
class ActiveWorkflow:
    """One workflow's live state inside the multi-tenant planner."""

    key: str
    tenant: str
    seq: int
    arrival_time: float
    kind: str
    workflow: object
    costs: object
    scheduler: AHEFTScheduler
    schedule: Schedule
    #: predicted span had the workflow run alone on the pool it arrived to
    dedicated_span: float
    decisions: List[ReschedulingDecision] = field(default_factory=list)
    wasted_work: float = 0.0
    killed_jobs: Set[str] = field(default_factory=set)
    completed_at: Optional[float] = None
    #: absolute completion deadline (``arrival + deadline_factor * span``)
    deadline: Optional[float] = None
    #: per-workflow stretch SLO target (``TenantSpec.slo_stretch``)
    slo_stretch: Optional[float] = None

    def finished_by(self, clock: float) -> bool:
        return clock >= self.schedule.makespan() - TIME_EPS

    def remaining_span(self, clock: float) -> float:
        return max(0.0, self.schedule.makespan() - clock)

    def consumed_time(self, clock: float) -> float:
        """Processor time this workflow has consumed by ``clock``.

        Counts duplicates too (``all_assignments``): duplication-based
        strategies occupy real slots, and the fair-share/credit ledgers
        must charge the tenant for them exactly as ``busy_view`` books
        them against everyone else.
        """
        return sum(
            max(0.0, min(a.finish, clock) - a.start)
            for a in self.schedule.all_assignments()
        )

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
    schedule: Schedule
    #: predicted span had the workflow run alone on the pool it arrived to
    dedicated_span: float
    #: the other workflows' bookings the plan was made around
    #: (:meth:`MultiTenantPlanner.busy_view` at the arrival clock)
    busy: BusyView


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
        Called once per admitted workflow; must produce an object with the
        ``reschedule`` interface of :class:`AHEFTScheduler`.
    strategy:
        Alternative to ``scheduler_factory``: the name of any registered
        scheduler with the ``reschedule`` interface (see
        ``repro.registry.available("scheduler")``) — every tenant then
        replans with that heuristic instead of AHEFT, the strategy-ablation
        hook of the multi-tenant tournament.
    accept_only_if_better:
        The accept rule of paper Fig. 2 line 7, identical to
        :class:`~repro.core.adaptive.AdaptiveReschedulingLoop`.
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
        self._perf_times: Set[float] = (
            set(perf_profile.change_times()) if perf_profile is not None else set()
        )

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
        served: Dict[str, float] = {}
        for wf in self._active.values():
            served[wf.tenant] = served.get(wf.tenant, 0.0) + wf.consumed_time(clock)
        return served

    def replan_order(
        self, candidates: Sequence[ActiveWorkflow], clock: float
    ) -> List[ActiveWorkflow]:
        """Order in which ``candidates`` replan at ``clock`` (policy-driven)."""
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
    def plan_arrival(self, arrival: WorkflowArrival, clock: float) -> PlannedArrival:
        """Tentatively plan ``arrival`` against the residual capacity.

        Pure with respect to planner state: nothing is registered, so
        admission control can inspect the plan (predicted stretch,
        dedicated span) and walk away.  Raises ``ValueError`` when the
        pool is momentarily empty.
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
        has_busy = bool(busy)
        plan = scheduler.reschedule(
            workflow,
            effective,
            resources,
            clock=clock,
            previous_schedule=None,
            busy=busy if has_busy else None,
        )
        if has_busy:
            dedicated = scheduler.reschedule(
                workflow, effective, resources, clock=clock, previous_schedule=None
            )
            dedicated_span = dedicated.makespan() - clock
        else:
            dedicated_span = plan.makespan() - clock
        return PlannedArrival(
            scheduler=scheduler, schedule=plan, dedicated_span=dedicated_span, busy=busy
        )

    def register(
        self, arrival: WorkflowArrival, clock: float, planned: PlannedArrival
    ) -> ActiveWorkflow:
        """Register a previously planned arrival as an active workflow."""
        if arrival.key in self._active:
            raise ValueError(f"workflow {arrival.key!r} was already admitted")
        deadline_factor = getattr(arrival, "deadline_factor", None)
        deadline = (
            None
            if deadline_factor is None
            else arrival.time + deadline_factor * planned.dedicated_span
        )
        active = ActiveWorkflow(
            key=arrival.key,
            tenant=arrival.tenant,
            seq=arrival.seq,
            arrival_time=arrival.time,
            kind=arrival.kind,
            workflow=arrival.case.workflow,
            costs=arrival.case.costs,
            scheduler=planned.scheduler,
            schedule=planned.schedule,
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

    def admit(self, arrival: WorkflowArrival, clock: float) -> ActiveWorkflow:
        """Plan a newly arrived workflow against the residual capacity."""
        if arrival.key in self._active:
            raise ValueError(f"workflow {arrival.key!r} was already admitted")
        return self.register(arrival, clock, self.plan_arrival(arrival, clock))

    # ------------------------------------------------------------------
    # grid events
    # ------------------------------------------------------------------
    def handle_event(self, clock: float, event: Optional[PoolEvent]) -> None:
        """Replan every unfinished workflow at a pool/performance event.

        Per workflow this is exactly one iteration of the single-workflow
        adaptive loop — kills, forced adoptions, perf repair, candidate,
        accept rule — except that the candidate is planned around the other
        workflows' current bookings, and the policy decides who goes first
        (earlier workflows book residual gaps that later ones then avoid).
        """
        resources = self.pool.available_at(clock)
        if not resources:
            return
        removed = frozenset(event.removed) if event is not None else frozenset()
        for wf in self.replan_order(self.unfinished(), clock):
            if wf.finished_by(clock):
                self._mark_completed(wf)
                continue
            # the workflow replans around everyone else: its own bookings
            # leave the directory until its turn is over
            self._bookings.release(wf.key)
            state = ExecutionState.from_schedule(
                wf.schedule, clock, jobs=wf.workflow.jobs
            )
            wasted, killed, forced = apply_departure_kills(
                wf.workflow, wf.schedule, state, removed
            )
            wf.wasted_work += wasted
            wf.killed_jobs |= killed
            effective = wf.costs
            if self.perf_profile is not None:
                effective = self.perf_profile.scaled_costs(wf.costs, clock)
                if clock in self._perf_times:
                    wf.schedule = repair_schedule(
                        wf.workflow,
                        wf.schedule,
                        state,
                        effective,
                        clock=clock,
                        resources=resources,
                    )
            candidate = wf.scheduler.reschedule(
                wf.workflow,
                effective,
                resources,
                clock=clock,
                previous_schedule=wf.schedule,
                execution_state=state,
                busy=self.busy_view(wf.key, clock),
            )
            decision = decide_adoption(
                clock,
                event,
                wf.schedule,
                candidate,
                forced=forced,
                accept_only_if_better=self.accept_only_if_better,
            )
            wf.decisions.append(decision)
            if decision.adopted:
                wf.schedule = candidate
            self._bookings.book(wf.key, wf.schedule, clock)

    # ------------------------------------------------------------------
    def _mark_completed(self, wf: ActiveWorkflow) -> None:
        """Complete ``wf`` at its predicted finish and feed the credit fold."""
        completed_at = wf.schedule.makespan()
        wf.completed_at = completed_at
        del self._unfinished[wf.key]
        self._bookings.release(wf.key)
        if self.credit is not None:
            self.credit.record_completion(
                wf.tenant,
                stretch=wf.stretch_at(completed_at),
                deadline_violated=wf.deadline_violated_at(completed_at),
                slo_violated=wf.slo_violated_at(completed_at),
            )

    def finalize(self) -> List[ActiveWorkflow]:
        """Mark every remaining workflow completed at its predicted finish.

        Stragglers fold into the credit ledger in predicted-completion
        order (ties by admission ``seq``), so end-of-run credit is the
        same as if the run had kept observing completions chronologically.
        """
        pending = sorted(
            self._unfinished.values(),
            key=lambda wf: (wf.schedule.makespan(), wf.seq),
        )
        for wf in pending:
            self._mark_completed(wf)
        return self.workflows()
