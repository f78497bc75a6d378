"""The adaptive rescheduling step (paper Fig. 1/2), its truth and its runners.

:class:`AdaptiveWorkflow` is one workflow's adaptive state — scheduler,
current plan, decision log and departure kills — and its one Planner step
(:meth:`AdaptiveWorkflow.step`): at an event of interest it kills the jobs
running on departed resources, repairs the plan's remaining timings when
the estimates changed, asks the scheduler for a candidate schedule ``S1``
for the unfinished part of the DAG and applies the accept rule of Fig. 2
lines 7–9 (``S1`` replaces ``S0`` only if it is forced or predicts a
shorter makespan).

One engine drives the step: the shared grid
(:class:`~repro.simulation.shared_grid.SharedGridExecutor` over a
:class:`~repro.core.multi_tenant.MultiTenantPlanner`).  The paper's
single-workflow run (:class:`AdaptiveReschedulingLoop`) is that grid with
one workflow registered at t=0 and no other tenant; a multi-tenant run
steps one object per admitted workflow, each around the others' bookings.

Under accurate estimates the plan is its own future: the step reads the
execution state off the plan (:meth:`ExecutionState.from_schedule`) and
the executed trace is the final plan plus the kills.  A noisy run attaches
an :class:`ActualExecution` to every workflow (:meth:`AdaptiveWorkflow.monitor`):
the grid replays the adopted bookings of every unfinished workflow jointly
against their ground-truth cost models after each event
(:func:`project_actuals`), the observed facts feed each workflow's
optional predictor, and the earliest completion that misses its booking
triggers replanning.

Three runners behind :func:`repro.run` give the head-to-head comparison of
the paper's evaluation:

* ``mode="static"`` — traditional static scheduling (plan once at t=0 on
  the initial pool; later resources are never used),
* ``mode="adaptive"`` — AHEFT: the adaptive loop reacting to every
  resource-pool change,
* ``mode="dynamic"`` — just-in-time mapping (Min-Min by default) executed
  on the discrete-event simulator.

All three run under the paper's experiment assumptions (§4.1): accurate
estimates and resource additions as the only pool changes, unless the
caller supplies a perturbed ``actual_costs`` model.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import count
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import registry
from repro.core.history import PerformanceHistoryRepository
from repro.core.predictor import Predictor
from repro.generators.costs import WorkflowCase
from repro.resources.pool import PoolEvent, ResourcePool
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import (
    FACT_FINISHED,
    FACT_RUNNING,
    Assignment,
    ExecutionState,
    Schedule,
    TIME_EPS,
)
from repro.scheduling.bookings import as_busy_view
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.minmin import MinMinScheduler
from repro.simulation.executor import (
    JustInTimeExecutor,
    StaticScheduleExecutor,
    record_observation,
)
from repro.simulation.shared_grid import SharedGridExecutor
from repro.simulation.trace import ExecutionTrace, KillRecord
from repro.workflow.costs import (
    CostModel,
    ErrorModel,
    PerturbedCostModel,
    prime_truth_factors,
)
from repro.workflow.dag import Workflow
from repro.workload.streams import WorkflowArrival

__all__ = [
    "ReschedulingDecision",
    "AdaptiveRunResult",
    "AdaptiveReschedulingLoop",
    "AdaptiveWorkflow",
    "ActualExecution",
    "describe_pool_event",
    "project_actuals",
    "repair_schedule",
    "resolve_strategy",
]


@dataclass(frozen=True)
class ReschedulingDecision:
    """Outcome of evaluating one event in the adaptive loop.

    ``forced`` marks decisions where the previous plan had become
    *infeasible* — unfinished work was mapped to a resource that departed —
    so the candidate was adopted regardless of the accept-if-better rule.
    """

    time: float
    event: str
    previous_makespan: float
    candidate_makespan: float
    adopted: bool
    forced: bool = False

    @property
    def predicted_gain(self) -> float:
        """Positive when the candidate schedule is shorter."""
        return self.previous_makespan - self.candidate_makespan


@dataclass
class AdaptiveRunResult:
    """Result of running one strategy on one workflow instance."""

    strategy: str
    initial_schedule: Schedule
    final_schedule: Schedule
    decisions: List[ReschedulingDecision] = field(default_factory=list)
    trace: Optional[ExecutionTrace] = None
    killed_jobs: int = 0

    @property
    def makespan(self) -> float:
        """The achieved makespan (actual trace if available, else planned)."""
        if self.trace is not None:
            return self.trace.makespan()
        return self.final_schedule.makespan()

    @property
    def initial_makespan(self) -> float:
        return self.initial_schedule.makespan()

    @property
    def rescheduling_count(self) -> int:
        """Number of *adopted* rescheduling decisions."""
        return sum(1 for decision in self.decisions if decision.adopted)

    @property
    def evaluated_events(self) -> int:
        return len(self.decisions)

    @property
    def wasted_work(self) -> float:
        """Execution time thrown away on departure kills."""
        return self.trace.wasted_work() if self.trace is not None else 0.0


@dataclass(eq=False)
class AdaptiveWorkflow:
    """One workflow's adaptive state and its Planner step (paper Fig. 1).

    Holds the heuristic ``H`` (``scheduler``), the adopted plan
    (``schedule``), the decision log and the departure kills; ``wasted_work``
    sums the kills' thrown-away execution time one step at a time.
    ``costs`` are the prior estimates, re-estimated by the optional
    ``predictor`` and scaled by the ``perf_profile`` at each step's clock.
    Without ``actual`` the estimates are accurate and the execution state is
    read off the plan; a noisy run attaches its :class:`ActualExecution`.
    """

    workflow: Workflow
    costs: CostModel
    scheduler: object
    #: the adopted plan (``None`` until the driver's first plan)
    schedule: Optional[Schedule]
    perf_profile: object = None
    #: Fig. 2 line 7; ``False`` is the always-adopt ablation
    accept_only_if_better: bool = True
    predictor: Optional[Predictor] = None
    actual: Optional["ActualExecution"] = None
    decisions: List[ReschedulingDecision] = field(default_factory=list)
    kills: List[KillRecord] = field(default_factory=list)
    wasted_work: float = 0.0

    def estimate(self, clock: float) -> CostModel:
        """The estimation matrix ``P`` at ``clock`` (Fig. 2 line 5)."""
        model = self.costs
        if self.predictor is not None:
            model = self.predictor.estimate(model)
        if self.perf_profile is not None:
            model = self.perf_profile.scaled_costs(model, clock)
        return model

    def monitor(
        self,
        truth: CostModel,
        predictor: Optional[Predictor] = None,
        *,
        replan_on_deviation: Optional[float] = 0.1,
    ) -> None:
        """Execute under ``truth`` from now on; the observed completions
        feed ``predictor``, which re-estimates every later step."""
        self.predictor = predictor
        self.actual = ActualExecution(
            self.workflow,
            self.costs,
            truth,
            perf_profile=self.perf_profile,
            history=predictor.history if predictor is not None else None,
            replan_on_deviation=replan_on_deviation,
        )

    def completion(self) -> float:
        """When the workflow completes: the plan's makespan, or in a noisy
        run the projected truth's."""
        return self.schedule.makespan() if self.actual is None else self.actual.completion()

    def finished_by(self, clock: float) -> bool:
        """Whether the workflow completes by ``clock`` (:meth:`completion`)."""
        return clock >= self.completion() - TIME_EPS

    def trace(self, strategy: str) -> ExecutionTrace:
        """What was executed: the final plan under accurate estimates, the
        drained truth in a noisy run, plus every departure kill."""
        if self.actual is None:
            executed, duplicates = self.schedule, self.schedule.duplicates
        else:
            executed, duplicates = self.actual.drain()
        workflow = self.workflow
        trace = ExecutionTrace(workflow_name=workflow.name, strategy=strategy)
        for job in workflow.jobs:
            assignment = executed.get(job)
            trace.record_job(job, assignment.resource_id, assignment.start, assignment.finish)
        index = workflow.structure().index
        for duplicate in sorted(
            duplicates,
            key=lambda a: (a.start, a.finish, index[a.job_id], a.resource_id),
        ):
            trace.record_duplicate(
                duplicate.job_id, duplicate.resource_id, duplicate.start, duplicate.finish
            )
        for kill in self.kills:
            trace.record_kill(kill.job_id, kill.resource_id, kill.start, kill.killed_at)
        return trace

    def step(
        self,
        clock: float,
        event: Optional[PoolEvent],
        resources: Sequence[str],
        *,
        busy=None,
        deviation: bool = False,
    ) -> ReschedulingDecision:
        """React to one event of interest at ``clock`` on ``resources``.

        1. Reads the execution state at ``clock``: off the plan, or off the
           ground truth the grid advanced to ``clock`` (the Performance
           Monitor's report, which also feeds the predictor's history); the
           grid replays the truth of the adopted plan after the step.
        2. Kills the jobs running on a resource ``event`` removed.
        3. Re-estimates the cost matrix (:meth:`estimate`).
        4. In a noisy run, syncs the plan with the observed facts; when
           anything deviated or a performance factor changes at ``clock``,
           repairs the plan's remaining timings around the ``busy`` spans
           (:func:`repair_schedule`) so the accept rule has an honest
           baseline.
        5. Asks the scheduler for a candidate planned around the foreign
           ``busy`` spans of a shared grid (``None`` or empty: a dedicated
           grid).
        6. Applies the accept rule of Fig. 2 lines 7–9: the candidate
           replaces the plan when the plan is infeasible (``forced``), when
           the rule is switched off, or when it predicts a makespan shorter
           by more than ``TIME_EPS``.

        The decision is logged and returned, labelled with the pool event,
        or ``"deviation"``/``"perf-change"`` for the monitor's and the
        performance profile's triggers.
        """
        workflow = self.workflow
        actual = self.actual
        # in a noisy run the facts the grid advanced to ``clock`` read like
        # an accurate plan: every started job began by then, and exactly
        # those that finish by it are finished
        if actual is None:
            state = ExecutionState.from_schedule(self.schedule, clock, jobs=workflow.jobs)
        else:
            state = actual.state(clock)
        removed = frozenset(event.removed) if event is not None else frozenset()
        forced = self._kill_departed(state, removed)

        effective = self.estimate(clock)
        changed = False
        if actual is not None:
            synced, changed = actual.sync_belief(self.schedule, state, effective)
        profile = self.perf_profile
        if changed or (profile is not None and clock in profile.change_times()):
            self.schedule = repair_schedule(
                workflow,
                synced if changed else self.schedule,
                state,
                effective,
                clock=clock,
                resources=resources,
                busy=busy,
            )

        # a dedicated grid (no foreign bookings) asks only the plain interface
        shared = {"busy": busy} if busy else {}
        candidate = self.scheduler.reschedule(
            workflow,
            effective,
            resources,
            clock=clock,
            previous_schedule=self.schedule,
            execution_state=state,
            **shared,
        )
        if event is not None:
            label = describe_pool_event(event)
        else:
            label = "deviation" if deviation else "perf-change"
        previous_makespan = self.schedule.makespan()
        candidate_makespan = candidate.makespan()
        decision = ReschedulingDecision(
            time=clock,
            event=label,
            previous_makespan=previous_makespan,
            candidate_makespan=candidate_makespan,
            adopted=(
                forced
                or not self.accept_only_if_better
                or candidate_makespan < previous_makespan - TIME_EPS
            ),
            forced=forced,
        )
        self.decisions.append(decision)
        if decision.adopted:
            self.schedule = candidate
        return decision

    def _kill_departed(self, state: ExecutionState, removed: FrozenSet[str]) -> bool:
        """Apply a departure to ``state``; return whether the plan is infeasible.

        Jobs *running* on a removed resource are killed: their partial
        execution is wasted work, and they return to not-started in
        ``state`` so the candidate re-maps them.  Unfinished work mapped to
        a removed resource — killed, planned there, or an unfinished
        duplicate copy whose consumers count on its local data — makes the
        plan infeasible and forces the candidate's adoption.
        """
        if not removed:
            return False
        clock = state.clock
        wasted = 0.0
        killed: List[str] = []
        forced = False
        schedule = self.schedule
        structure = self.workflow.structure()
        jobs = structure.jobs
        codes, _ = state.started_facts(structure)
        booked = schedule.assignments_for(jobs)
        for i, code in enumerate(codes):
            if code == FACT_RUNNING:
                job = jobs[i]
                if state.executed_on[job] in removed:
                    resource, start = state.restart(job)
                    wasted += clock - start
                    killed.append(job)
                    self.kills.append(KillRecord(job, resource, start, clock))
                    forced = True
            elif not code:
                assignment = booked[i]
                if assignment is not None and assignment.resource_id in removed:
                    forced = True
        for duplicate in schedule.duplicates:
            if duplicate.resource_id in removed and duplicate.finish > clock + TIME_EPS:
                forced = True
        self.wasted_work += wasted
        if self.actual is not None:
            self.actual.forget(killed, removed, clock)
        return forced


class ActualExecution:
    """The ground truth of one workflow's adopted plans in a noisy run.

    Bookings are *reservations*: a job never starts before its booked
    start, and deviations push it (and its successors, and everything
    queued behind it on the resource, across tenants) later.  The
    projection is the current plan's share of the grid's joint
    :func:`project_actuals` replay (:meth:`track`); executions become facts
    once observed started (:meth:`advance`), and each finished one is
    reported to ``history`` (Fig. 1: Scheduler → Performance History
    Repository).

    The facts are dense, indexed by ``workflow.structure()`` ids:
    :attr:`status` holds each job's code (``0`` not started,
    :data:`~repro.scheduling.base.FACT_RUNNING`,
    :data:`~repro.scheduling.base.FACT_FINISHED`) and :attr:`fact` its
    executed :class:`~repro.scheduling.base.Assignment` (resource, actual
    start, actual finish); :attr:`started` maps the same objects by job in
    start order.  Nothing is rescanned per event: :meth:`track` keeps the
    projected executions in a heap by ``(start, finish, id)``, from which
    :meth:`advance` starts exactly those due by the clock, and the running
    facts in a heap by ``(finish, start, id)``, from which it finishes
    them in the order the history records them.  :attr:`projection` is the
    monitor's own mapping: a replay that changed only some projected
    executions hands over just those, which the monitor writes into it
    (stale heap entries are skipped), and the monitor's deviation
    candidates (:meth:`next_deviation`) are kept in a heap of their own
    that only a new plan rebuilds.  :meth:`state` reads the
    :class:`~repro.scheduling.base.ExecutionState` off the dense facts.

    ``replan_on_deviation`` arms the monitor's own trigger
    (:meth:`next_deviation`); ``None`` disables it.
    """

    def __init__(
        self,
        workflow: Workflow,
        costs: CostModel,
        truth: CostModel,
        *,
        perf_profile=None,
        history: Optional[PerformanceHistoryRepository] = None,
        replan_on_deviation: Optional[float] = None,
    ) -> None:
        self.workflow = workflow
        self.costs = costs
        self.truth = truth
        self.perf_profile = perf_profile
        self.history = history
        self.replan_on_deviation = replan_on_deviation
        structure = workflow.structure()
        self._structure = structure
        self._index = structure.index
        #: per dense id: 0 (not started), FACT_RUNNING or FACT_FINISHED
        self.status = bytearray(structure.num_jobs)
        #: per dense id: the ground truth of a started job (``None`` otherwise)
        self.fact: List[Optional[Assignment]] = [None] * structure.num_jobs
        #: the same facts by job, in start order
        self.started: Dict[str, Assignment] = {}
        #: ground truth of every started duplicate copy, per (job, resource)
        self.started_duplicates: Dict[tuple, Assignment] = {}
        #: the current plan's actual future: primaries and duplicates
        self.projection: Dict[str, Assignment] = {}
        self.duplicate_projection: Dict[tuple, Assignment] = {}
        self._tick = count()
        #: ``(start, finish, id, tick, assignment)`` of projected primaries
        self._to_start: List[tuple] = []
        #: ``(finish, start, id, tick, assignment)`` of running facts
        self._to_finish: List[tuple] = []
        self._completion: Optional[float] = None
        #: the clock the facts were last advanced to
        self._advanced = float("-inf")
        #: deviation candidates against ``_deviation_plan``:
        #: ``(finish, tick, assignment)``, plus executions not yet sorted in
        self._deviations: List[tuple] = []
        self._deviation_plan: Optional[Schedule] = None
        self._deviation_after = float("-inf")
        self._deviation_pending: List[Assignment] = []

    def facts(self) -> Dict[object, Assignment]:
        """Every started execution, keyed like :func:`project_actuals`."""
        if self.started_duplicates:
            return {**self.started, **self.started_duplicates}
        return self.started

    def state(self, clock: float) -> ExecutionState:
        """The execution state the facts describe at ``clock`` (the clock
        they were last advanced to)."""
        return ExecutionState.from_facts(self._structure, self.status, self.fact, clock)

    def track(
        self,
        projected: Dict[object, Assignment],
        updated: Optional[List[Assignment]] = None,
    ) -> None:
        """Take the plan's replayed future (primaries and duplicates).

        ``updated`` lists the executions a replay changed since the
        mapping it handed over last (``projected`` is then that replay's
        own, which it keeps up to date, and is not read); ``None`` means
        ``projected`` is new.  Either way the monitor keeps its own
        :attr:`projection`, which :meth:`advance` empties as jobs start.
        """
        index = self._index
        tick = self._tick
        if updated is None:
            primaries: Dict[str, Assignment] = {}
            duplicates = {}
            for key, a in projected.items():
                if isinstance(key, tuple):
                    duplicates[key] = a
                else:
                    primaries[key] = a
            self.projection = primaries
            self.duplicate_projection = duplicates
            self._to_start = [
                (a.start, a.finish, index[a.job_id], next(tick), a) for a in primaries.values()
            ]
            heapify(self._to_start)
            self._deviation_plan = None
            self._completion = None
            return
        if updated:
            projection = self.projection
            for a in updated:
                projection[a.job_id] = a
                heappush(self._to_start, (a.start, a.finish, index[a.job_id], next(tick), a))
            if self._deviation_plan is not None:
                self._deviation_pending.extend(updated)
            self._completion = None

    def completion(self) -> float:
        """The projected actual completion of the workflow."""
        if self._completion is None:
            self._completion = max(
                [a.finish for a in self.started.values()]
                + [a.finish for a in self.projection.values()],
                default=0.0,
            )
        return self._completion

    def _finish(self, assignments: List[Assignment]) -> None:
        """Mark executions finished and report them in completion order."""
        index = self._index
        assignments.sort(key=lambda a: (a.finish, a.start, index[a.job_id]))
        for assignment in assignments:
            self.status[index[assignment.job_id]] = FACT_FINISHED
            if self.history is not None:
                record_observation(
                    self.history,
                    self.workflow,
                    self.costs,
                    assignment.job_id,
                    assignment.resource_id,
                    assignment.start,
                    assignment.finish,
                    self.perf_profile,
                )

    def advance(self, clock: float) -> None:
        """Advance the ground truth to ``clock``: record what started and
        what finished by then."""
        limit = clock + TIME_EPS
        self._advanced = clock
        projection = self.projection
        started = self.started
        fact = self.fact
        status = self.status
        to_start = self._to_start
        to_finish = self._to_finish
        tick = self._tick
        while to_start and to_start[0][0] <= limit:
            _, _, i, _, assignment = heappop(to_start)
            job = assignment.job_id
            if projection.get(job) is not assignment:
                continue  # replaced by a later replay
            del projection[job]
            started[job] = assignment
            fact[i] = assignment
            status[i] = FACT_RUNNING
            heappush(to_finish, (assignment.finish, assignment.start, i, next(tick), assignment))
        for key, assignment in self.duplicate_projection.items():
            if assignment.start <= limit:
                self.started_duplicates[key] = assignment
        finished = []
        while to_finish and to_finish[0][0] <= limit:
            _, _, i, _, assignment = heappop(to_finish)
            if fact[i] is assignment:  # not lost to a departure
                finished.append(assignment)
        self._finish(finished)

    def forget(self, killed: Sequence[str], removed: FrozenSet[str], clock: float) -> None:
        """Drop the executions a departure at ``clock`` killed."""
        index = self._index
        for job in killed:
            del self.started[job]
            i = index[job]
            self.fact[i] = None
            self.status[i] = 0
        # a duplicate running on a departed resource is lost
        for key, duplicate in list(self.started_duplicates.items()):
            if duplicate.resource_id in removed and duplicate.finish > clock + TIME_EPS:
                del self.started_duplicates[key]
        self._completion = None
        self._deviation_plan = None

    def sync_belief(
        self, plan: Schedule, state: ExecutionState, effective: CostModel
    ) -> tuple:
        """Substitute observed facts into the plan; never re-time futures.

        Returns ``(synced, changed)`` where ``changed`` flags any deviation
        between the plan and the observed actuals (without one, ``synced``
        is ``plan`` itself).  A running job keeps its *booked duration*
        shifted to its actual start (speed frozen at dispatch, estimate
        unchanged), floored at the clock — the planner knows an overdue
        job cannot finish in the past.  A running job without a booking on
        its resource is priced by ``effective``, the step's estimate.
        Only the started jobs are compared; the synced plan reuses the
        fact objects of the finished ones.
        """
        structure = self._structure
        codes, _ = state.started_facts(structure)
        clock = state.clock
        limit = clock + TIME_EPS
        duplicates = []
        changed = False
        for duplicate in plan.duplicates:
            # started duplicate executions are facts (see repair_schedule);
            # one booked to have started but still waiting is dropped
            if duplicate.start > limit:
                continue
            actual = self.started_duplicates.get((duplicate.job_id, duplicate.resource_id))
            if actual != duplicate:
                changed = True
            if actual is not None:
                duplicates.append(actual)
        if not changed:
            index = self._index
            for job, actual in self.started.items():
                code = codes[index[job]]
                booked = plan.get(job)
                if code == FACT_FINISHED:
                    changed = actual is not booked and actual != booked
                elif code:
                    changed = (
                        booked is None
                        or booked.resource_id != actual.resource_id
                        or booked.start != actual.start
                    )
                if changed:
                    break
            if not changed:
                return plan, False
        jobs = structure.jobs
        booked_all = plan.assignments_for(jobs)
        fact = self.fact
        synced: List[Assignment] = []
        for i, code in enumerate(codes):
            booked = booked_all[i]
            if code == FACT_FINISHED:
                synced.append(fact[i])
            elif code:
                running = fact[i]
                rid, start = running.resource_id, running.start
                if booked is not None and booked.resource_id == rid:
                    if start == booked.start:
                        belief_finish = booked.finish
                    else:
                        belief_finish = start + (booked.finish - booked.start)
                else:
                    belief_finish = start + effective.computation_cost(jobs[i], rid)
                belief_finish = max(belief_finish, clock)
                synced.append(Assignment(jobs[i], rid, start, belief_finish))
            elif booked is not None:
                synced.append(booked)
        return Schedule.of(synced, name=plan.name, duplicates=duplicates), True

    def next_deviation(self, plan: Schedule, after: float) -> Optional[float]:
        """Earliest completion after ``after`` deviating beyond the threshold.

        The monitor learns a job's actual duration when it completes; a
        completion whose time differs from ``plan``'s booked finish by more
        than ``replan_on_deviation`` of the booked duration is an event of
        interest.  The deviating executions sit in a heap by finish that a
        new ``plan`` (or a new projection) rebuilds and a replay's changed
        executions refresh; ``after`` is the grid clock, so what finishes
        by it leaves the heap for good (a smaller ``after`` rebuilds it).
        """
        threshold = self.replan_on_deviation
        if threshold is None:
            return None
        limit = after + TIME_EPS
        rebuild = plan is not self._deviation_plan or after < self._deviation_after
        if rebuild:
            self._deviation_plan = plan
            self._deviations = []
            if after >= self._advanced:
                # what finished by the clock the facts were advanced to
                # cannot deviate after it: the running facts and the
                # projection are the candidates
                fact = self.fact
                self._deviation_pending = [
                    item[4] for item in self._to_finish if fact[item[2]] is item[4]
                ]
            else:
                self._deviation_pending = list(self.started.values())
            self._deviation_pending.extend(self.projection.values())
        self._deviation_after = after
        heap = self._deviations
        if self._deviation_pending:
            tick = self._tick
            deviating = []
            for actual in self._deviation_pending:
                if actual.finish <= limit:
                    continue
                booked = plan.get(actual.job_id)
                if booked is None:
                    continue
                slack = threshold * max(booked.duration, TIME_EPS)
                if abs(actual.finish - booked.finish) > slack:
                    deviating.append((actual.finish, next(tick), actual))
            self._deviation_pending = []
            if rebuild:
                heapify(deviating)
                heap = self._deviations = deviating
            else:
                for item in deviating:
                    heappush(heap, item)
        index = self._index
        while heap:
            finish, _, actual = heap[0]
            job = actual.job_id
            if finish > limit and (
                self.fact[index[job]] is actual or self.projection.get(job) is actual
            ):
                return finish
            heappop(heap)
        return None

    def drain(self) -> tuple:
        """Run the projected tail: ``(primaries, duplicates)`` executed."""
        started = self.started
        for assignment in self.projection.values():
            started.setdefault(assignment.job_id, assignment)
        for key, assignment in self.duplicate_projection.items():
            self.started_duplicates.setdefault(key, assignment)
        index = self._index
        status = self.status
        self._finish(
            [a for job, a in started.items() if status[index[job]] != FACT_FINISHED]
        )
        return started, list(self.started_duplicates.values())


class AdaptiveReschedulingLoop:
    """The paper's single-workflow run of the Fig. 2 planning loop.

    Parameters
    ----------
    scheduler:
        The heuristic ``H`` plugged into ``schedule(S0, P, H)``; AHEFT by
        default (any object with ``schedule``/``reschedule`` methods works).
    accept_only_if_better:
        Fig. 2 line 7: adopt the candidate only when its predicted makespan
        improves on the current plan.  Setting this to ``False`` (always
        adopt) is exposed for the ablation benchmark.
    """

    def __init__(
        self,
        scheduler: Optional[AHEFTScheduler] = None,
        *,
        accept_only_if_better: bool = True,
    ) -> None:
        self.scheduler = scheduler or AHEFTScheduler()
        self.accept_only_if_better = accept_only_if_better

    # ------------------------------------------------------------------
    def run(
        self,
        workflow: Workflow,
        costs: CostModel,
        pool: ResourcePool,
        *,
        perf_profile=None,
        actual_costs: Optional[CostModel] = None,
        predictor: Optional[Predictor] = None,
        replan_on_deviation: Optional[float] = 0.1,
    ) -> AdaptiveRunResult:
        """Plan at t=0, then step the workflow until it finishes.

        The paper's Fig. 1 Planner/Executor cycle, run as the one tenant of
        a shared grid (:class:`_DedicatedGrid`): every pool and performance
        change until the workflow finishes triggers
        :meth:`AdaptiveWorkflow.step`.  The Planner plans on estimates
        (re-estimated by the optional ``predictor`` from the history the
        observed completions feed), while the grid executes the adopted
        bookings with the ground-truth durations of ``actual_costs``
        (typically a sampled :class:`~repro.workflow.costs.PerturbedCostModel`).

        ``replan_on_deviation`` arms the monitor's own trigger: when an
        observed completion misses its booked one by more than that
        non-negative fraction of the booked duration, the Planner
        re-evaluates at that instant (event label ``"deviation"``).  This
        is how the adaptive strategy *absorbs* estimate error between grid
        events instead of just pushing the reservation timeline back.
        ``None`` disables it.

        With neither ``actual_costs`` nor a ``predictor`` the estimates are
        the truth (the paper's §4.1 accurate-estimation assumption): the
        step reads its state off the plan, no :func:`project_actuals`
        replay runs and no deviation can fire — what the full replay
        computes when the truth equals the estimates
        (``tests/test_differential.py::TestZeroNoiseDifferential``).

        The result's :class:`ExecutionTrace` records the actual execution,
        so ``result.makespan`` is the achieved makespan.
        """
        if replan_on_deviation is not None and not replan_on_deviation >= 0.0:
            raise ValueError(
                "replan_on_deviation must be a non-negative fraction or None, "
                f"got {replan_on_deviation!r}"
            )
        if not pool.available_at(0.0):
            raise ValueError("no resources available at time 0")
        if actual_costs is None and predictor is not None:
            actual_costs = costs  # observed to feed the history: the estimates are the truth
        grid = _DedicatedGrid(
            WorkflowCase(workflow, costs),
            pool,
            truth=None if actual_costs is None else (actual_costs, predictor),
            replan_on_deviation=replan_on_deviation,
            perf_profile=perf_profile,
            scheduler_factory=lambda: self.scheduler,
            accept_only_if_better=self.accept_only_if_better,
        )
        grid.run()
        wf = grid.workflow
        name = getattr(self.scheduler, "name", "adaptive")
        return AdaptiveRunResult(
            strategy=name,
            initial_schedule=grid.initial,
            final_schedule=wf.schedule,
            decisions=wf.decisions,
            trace=wf.trace(name),
            killed_jobs=len({kill.job_id for kill in wf.kills}),
        )


class _DedicatedGrid(SharedGridExecutor):
    """The one-tenant grid of a single-workflow run.

    Its workflow registers as the grid opens, ahead of any grid event at
    t=0, with the plan ``scheduler.schedule`` makes on the estimates at
    clock 0 (``initial``), and executes under the run's own ``truth`` and
    predictor instead of a key-scoped error model.
    """

    def __init__(
        self, case: WorkflowCase, pool: ResourcePool, *, truth, replan_on_deviation, **options
    ) -> None:
        super().__init__((), pool, **options)
        self.case = case
        #: ``(truth model, predictor)``, or ``None`` under accurate estimates
        self.truth = truth
        self._deviation_threshold = replan_on_deviation
        self.initial: Optional[Schedule] = None
        self.workflow = None

    def _releases(self):
        return [(self.case.costs, 0.0)]

    def _open(self, planner) -> None:
        from repro.core.multi_tenant import PlannedArrival

        scheduler = self.scheduler_factory()
        # AdaptiveWorkflow.estimate at clock 0
        estimates = self.case.costs
        if self.truth is not None and self.truth[1] is not None:
            estimates = self.truth[1].estimate(estimates)
        if self.perf_profile is not None:
            estimates = self.perf_profile.scaled_costs(estimates, 0.0)
        plan = scheduler.schedule(self.case.workflow, estimates, self.pool.available_at(0.0))
        arrival = WorkflowArrival("dedicated", 0, 0.0, "workflow", self.case)
        planned = PlannedArrival(scheduler, plan, plan.makespan(), planner.busy_view(None, 0.0))
        self.initial = plan
        self.workflow = self._register(planner, arrival, 0.0, planned)

    def _truth(self, wf):
        return self.truth


def repair_schedule(
    workflow: Workflow,
    schedule: Schedule,
    state: ExecutionState,
    costs: CostModel,
    *,
    clock: float,
    resources: Sequence[str],
    busy=None,
) -> Schedule:
    """Re-estimate a plan's remaining finish times under new perf factors.

    Every mapping is kept; only times move.  Finished jobs keep their actual
    history.  A *running* job keeps its scheduled finish time: a job's speed
    is frozen at dispatch — exactly the semantics of the simulation
    executors — so factor changes only affect work dispatched after them.
    Not-started jobs are re-timed in topological order on their mapped
    resource: ready when every predecessor's repaired output arrives
    (average communication cost when crossing resources), durations priced
    by ``costs`` (which already embeds the new factors).  Jobs mapped to
    resources no longer in ``resources`` keep their old times — such a plan
    is infeasible and the caller adopts the replacement candidate
    unconditionally.  On a shared grid a re-timed job also waits for the
    first gap that fits it between the other workflows' ``busy`` bookings,
    so the repaired plan is as feasible as the candidate it is compared
    with.

    The re-timing walks the dense ``workflow.structure()`` ids (``topo``)
    and keeps each job's repaired finish and output resource in
    index-addressed lists.  ``c̄`` comes from
    ``costs.predecessor_communications()`` — the repair reads only average
    transfer costs, so that view serves every model — and durations from
    ``costs.computation_rows(resources)``, the memoised rows the following
    ``reschedule`` on the same pool reads too.  A model that cannot be
    memoised (``cache_token() is None``) or prices another workflow is
    asked ``computation_cost`` per re-timed job instead of building a
    ``jobs × pool`` matrix it would throw away.

    The repaired schedule is the honest comparison baseline for the
    accept-if-better rule: without it a degradation would be invisible (the
    stale plan still *predicts* the old makespan) and the Planner would
    wrongly reject every post-degradation candidate.
    """
    column = {rid: j for j, rid in enumerate(resources)}
    free: Dict[str, float] = {}
    view = as_busy_view(busy) if busy else {}
    foreign = {rid: view.timeline(rid, clock) for rid in view}

    # Historical duplicates (duplication-based strategies) that began
    # executing by ``clock`` are facts: keep them so the pinned history
    # stays precedence-feasible, and block their resources while they run.
    # Future duplicates are dropped — the re-timing below prices every
    # not-started job off the primary copies, which is feasible without
    # them, and the next real replanning pass re-derives duplicates.
    duplicates: List[Assignment] = []
    for duplicate in schedule.duplicates:
        if duplicate.start > clock + TIME_EPS:
            continue
        if duplicate.resource_id not in column and duplicate.finish > clock + TIME_EPS:
            continue
        duplicates.append(duplicate)
        if duplicate.finish > clock + TIME_EPS:
            rid = duplicate.resource_id
            free[rid] = max(free.get(rid, clock), duplicate.finish)

    structure = workflow.structure()
    jobs = structure.jobs
    if costs.workflow is workflow:
        pred_comm = costs.predecessor_communications()
        rows = costs.computation_rows(resources) if costs.cache_token() is not None else None
    else:  # the dense views are aligned with another workflow's structure
        pred_comm = [
            [(p, costs.average_communication_cost(jobs[p], job)) for p in structure.pred[i]]
            for i, job in enumerate(jobs)
        ]
        rows = None
    booked = schedule.assignments_for(jobs)
    codes, finished_facts = state.started_facts(structure)
    executed_on = state.executed_on
    #: the repaired plan, in insertion order: finished facts, running
    #: bookings, then the re-timed jobs in topological order
    repaired: List[Assignment] = []
    #: per dense id: the repaired finish (``clock`` for an unmapped job)
    finish: List[float] = [clock] * len(jobs)
    #: per dense id: where the job's output is produced (``None``: unmapped,
    #: which consumers read as local data)
    source: List[Optional[str]] = [None] * len(jobs)
    #: per dense id: finished or running, i.e. not re-timed
    kept = bytearray(len(jobs))
    running: List[int] = []
    for i, code in enumerate(codes):
        assignment = booked[i]
        if code == FACT_FINISHED:
            fact = finished_facts[i]
            source[i] = fact.resource_id
            repaired.append(fact)
            finish[i] = fact.finish
            kept[i] = 1
        elif code:
            source[i] = executed_on[jobs[i]]
            if assignment is not None:
                running.append(i)
        elif assignment is not None:
            source[i] = assignment.resource_id
    for i in running:
        # speed frozen at dispatch: the in-flight job finishes as scheduled
        assignment = booked[i]
        rid = assignment.resource_id
        repaired.append(assignment)
        finish[i] = assignment.finish
        kept[i] = 1
        free[rid] = max(free.get(rid, clock), assignment.finish)

    for i in structure.topo:
        assignment = booked[i]
        if kept[i] or assignment is None:
            continue
        rid = assignment.resource_id
        j = column.get(rid)
        if j is None:
            # infeasible mapping — keep the stale times; the caller adopts
            # the replacement candidate unconditionally (forced decision).
            repaired.append(assignment)
            finish[i] = assignment.finish
            continue
        ready = clock
        for p, comm in pred_comm[i]:
            arrival = finish[p]
            src = source[p]
            if src is not None and src != rid:
                arrival += comm
            if arrival > ready:
                ready = arrival
        start = max(ready, free.get(rid, clock))
        duration = rows[i][j] if rows is not None else costs.computation_cost(jobs[i], rid)
        if rid in foreign:
            start = foreign[rid].earliest_start(start, duration)
        finish[i] = start + duration
        repaired.append(Assignment(jobs[i], rid, start, finish[i]))
        free[rid] = finish[i]
    return Schedule.of(repaired, name=schedule.name, duplicates=duplicates)


def project_actuals(
    workflows: Sequence[tuple],
    *,
    perf_profile=None,
    clock: float = 0.0,
    state: Optional["ReplayState"] = None,
) -> List[Dict[object, Assignment]]:
    """Replay plans' not-yet-started executions under ground-truth durations.

    ``workflows`` is a sequence of ``(workflow, plan, started, truth)``
    entries, in tie-break order, whose plans share the resources: every
    unfinished workflow of the shared grid, one for a single-workflow run.
    Bookings are treated as *reservations*: an execution starts at its
    booked start, pushed later if its resource is still busy (the previous
    booking — possibly another workflow's — overran), its inputs have
    not arrived yet (a predecessor overran) or the booking lies before
    ``clock`` — what has not started by the observation instant cannot
    start in its past, even when another workflow's replanning freed the
    slot it was waiting for.  Its actual duration is
    ``truth.computation_cost(job, rid)`` scaled by the resource's
    performance factor at the actual start (speed frozen at dispatch,
    matching the simulation executors).  With accurate truth models the
    replay reproduces the plans bit for bit — the zero-noise differential
    guarantee.

    Executions are keyed by the job id for a primary copy and by the
    ``(job, resource)`` pair for a duplicate copy (duplication-based
    strategies).  ``started`` holds the ground truth of every execution
    of that workflow already dispatched (running or finished); those are
    taken as facts and occupy their resources first.  Returns, per entry,
    the actual :class:`~repro.scheduling.base.Assignment` of every other
    execution in its plan, keyed the same way.

    Each resource runs one queue of every workflow's remaining bookings
    and duplicates in ``(start, finish, workflow order, job_id)`` order;
    an execution only starts once every input has arrived: the
    predecessor's primary output (transfer priced by the truth model,
    which delegates communication to the estimates) or, sooner, a
    duplicate of the predecessor already executed on the same resource.
    The combined (resource-order + precedence) relation of feasible,
    non-overlapping plans is acyclic, so the replay always terminates with
    every execution placed.

    Precedence is walked on each workflow's dense ``structure()`` ids, with
    every primary's actual finish and resource in index-addressed lists.
    When the truth has uniform communication and prices this workflow, a
    transfer is ``0.0`` on the same resource and ``c̄`` from
    ``truth.predecessor_communications()`` otherwise; a pairwise truth is
    asked ``communication_cost`` per crossing.  Durations stay lazy: a
    sampled truth draws one factor per (job, resource) pair it is asked
    about, and only a small share of all pairs is ever dispatched — a
    dense truth matrix would draw every one of them — but each workflow's
    truth duration of a pair is asked once and memoised; the performance
    factor is applied at each replayed start.

    ``state`` (a :class:`ReplayState`) makes the replay incremental across
    calls: it keeps the queues and every execution's replayed value, and
    the next call re-walks only what changed — see :class:`ReplayState`.
    Without it every call starts from scratch.  Either way the result is
    the same.
    """
    if state is None:
        state = ReplayState()
    if getattr(perf_profile, "is_trivial", False):
        perf_profile = None  # every factor is 1.0
    return state.replay(workflows, perf_profile, float(clock))


class _OutOfOrder(Exception):
    """An incremental replay met an input it had not brought up to date."""


#: rank spacing of the workflows a replay state keeps (room to insert)
_RANK_STEP = 1 << 20

#: a booking's queue order
_booking_key = attrgetter("key")


class _Booking:
    """One queued execution of a replay: a primary (``dup is None``) or a
    duplicate copy, with its replayed value ``actual``."""

    __slots__ = ("key", "rid", "tenant", "i", "dup", "actual", "free", "round", "alive")

    def __init__(self, key: tuple, rid: str, tenant: "_TenantReplay", i: int, dup) -> None:
        #: queue order: ``(booked start, booked finish, workflow rank, job)``
        self.key = key
        self.rid = rid
        self.tenant = tenant
        self.i = i
        self.dup = dup
        self.actual: Optional[Assignment] = None
        #: when its resource was free for it (the queue predecessor's
        #: finish, or the facts' at the queue front) as last replayed
        self.free = 0.0
        self.round = -1
        self.alive = True


class _TenantReplay:
    """One workflow of a replay: its precedence, facts and projection."""

    def __init__(self, workflow, plan, started, truth, rank: int, memo: dict, clock: float):
        structure = workflow.structure()
        self.workflow = workflow
        self.plan = plan
        self.truth = truth
        self.rank = rank
        self.jobs = structure.jobs
        self.succ = structure.succ
        if truth.has_uniform_communication and truth.workflow is workflow:
            self.pred_comm = truth.predecessor_communications()
            self.pairwise = None
        else:
            self.pred_comm = [[(p, 0.0) for p in preds] for preds in structure.pred]
            self.pairwise = truth.communication_cost
        #: the truth's duration per resource and dense id, as asked so far
        self.memo = memo
        n = structure.num_jobs
        #: per dense id: the primary's actual finish and resource
        self.finish_of: List[Optional[float]] = [None] * n
        self.resource_of: List[Optional[str]] = [None] * n
        #: finish of the duplicate copies executed or replayed, per (job, resource)
        self.local: Dict[tuple, float] = {}
        #: facts that may still hold a resource past the clock
        self.live: List[Assignment] = []
        position = structure.index
        for key, assignment in started.items():
            if assignment.finish > clock:
                self.live.append(assignment)
            i = position.get(key) if isinstance(key, str) else None
            if i is not None:
                self.finish_of[i] = assignment.finish
                self.resource_of[i] = assignment.resource_id
        #: how many facts the replay knows of
        self.facts = len(started)
        #: the replayed executions, keyed like ``project_actuals`` returns them
        self.projected: Dict[object, Assignment] = {}
        #: queued primaries by dense id
        self.bookings: Dict[int, _Booking] = {}
        #: executions whose projection this call changed (``None``: all new)
        self.updated: Optional[List[Assignment]] = None
        #: the (job, resource) pairs :meth:`queue` found without a memoised
        #: truth duration
        self.unpriced: List[Tuple[str, str]] = []

    def queue(self, started) -> List[_Booking]:
        """The plan's executions not started yet, as bookings.

        The (job, resource) pairs among them whose truth duration the memo
        lacks are left in :attr:`unpriced`, for :func:`_prime_truth`.
        """
        rank = self.rank
        position = self.workflow.structure().index
        memo = self.memo
        out = []
        unpriced = self.unpriced = []
        for a in self.plan:
            job = a.job_id
            if job not in started:
                rid = a.resource_id
                i = position[job]
                booking = _Booking((a.start, a.finish, rank, job), rid, self, i, None)
                self.bookings[i] = booking
                out.append(booking)
                durations = memo.get(rid)
                if durations is None or durations[i] is None:
                    unpriced.append((job, rid))
        for d in self.plan.duplicates:
            key = (d.job_id, d.resource_id)
            fact = started.get(key)
            if fact is not None:
                self.local[key] = fact.finish
            else:
                out.append(_Booking((d.start, d.finish, rank, d.job_id), d.resource_id, self,
                                    position[d.job_id], key))
                unpriced.append(key)
        return out

    def evaluate(self, booking: _Booking, free: float, perf_profile) -> Optional[tuple]:
        """``(start, finish)`` of ``booking`` after ``free`` on its resource,
        or ``None`` while a predecessor's output is unknown."""
        i = booking.i
        rid = booking.rid
        finish_of = self.finish_of
        resource_of = self.resource_of
        pairwise = self.pairwise
        local = self.local
        ready = max(booking.key[0], free)
        if pairwise is None and not local:
            # the common case: c̄ across resources, no duplicate copies
            for p, comm in self.pred_comm[i]:
                arrival = finish_of[p]
                if arrival is None:
                    return None
                if resource_of[p] != rid:
                    arrival += comm
                if arrival > ready:
                    ready = arrival
        else:
            jobs = self.jobs
            job = jobs[i]
            for p, comm in self.pred_comm[i]:
                pred_finish = finish_of[p]
                if pred_finish is not None:
                    src = resource_of[p]
                    if pairwise is not None:
                        transfer = pairwise(jobs[p], job, src, rid)
                    else:
                        transfer = 0.0 if src == rid else comm
                    arrival = pred_finish + transfer
                    if local:
                        local_finish = local.get((jobs[p], rid))
                        if local_finish is not None and local_finish < arrival:
                            arrival = local_finish
                else:
                    arrival = local.get((jobs[p], rid)) if local else None
                    if arrival is None:
                        return None
                if arrival > ready:
                    ready = arrival
        durations = self.memo.get(rid)
        if durations is None:
            durations = self.memo[rid] = [None] * len(self.jobs)
        duration = durations[i]
        if duration is None:
            duration = durations[i] = self.truth.computation_cost(self.jobs[i], rid)
        if perf_profile is not None:
            duration *= perf_profile.factor_at(rid, ready)
        return ready, ready + duration

    def take(self, booking: _Booking, free: float, start: float, finish: float) -> Assignment:
        """Record ``booking``'s replayed value, replayed after ``free``."""
        actual = Assignment(self.jobs[booking.i], booking.rid, start, finish)
        booking.actual = actual
        booking.free = free
        if booking.dup is None:
            self.projected[actual.job_id] = actual
            self.finish_of[booking.i] = finish
            self.resource_of[booking.i] = booking.rid
        else:
            self.projected[booking.dup] = actual
            self.local[booking.dup] = finish
        return actual


def _prime_truth(tenants: Sequence[_TenantReplay]) -> None:
    """Draw in one kernel pass the truth factors the walk will ask for:
    the pairs each tenant's :meth:`~_TenantReplay.queue` left unpriced."""
    prime_truth_factors((tenant.truth, tenant.unpriced) for tenant in tenants if tenant.unpriced)


class ReplayState:
    """What one grid's joint truth replay (:func:`project_actuals`) keeps
    from call to call: the per-resource queues with every execution's
    replayed value, and per workflow its facts, projection and memoised
    truth durations.

    A call first brings the kept queues up to date, cheapest first:

    * a booking its workflow's facts now list as started leaves the front
      of its queue (replayed starts never decrease along a queue, so what
      started is a prefix) and keeps its value as a fact;
    * a workflow whose plan changed (a new plan object, or facts the kept
      queues cannot explain) leaves every queue and enters again with its
      new plan's bookings; so does a new workflow, and a workflow no
      longer listed leaves;
    * what each resource is free from at the clock is recomputed from the
      facts still running.

    It then re-walks, in queue order over all resources, only the bookings
    such a change reaches: an entering booking, the one queued behind a
    booking that left or whose finish moved, a successor of a primary
    whose finish moved, and a queue front whose free-from time moved.  A
    booking whose inputs are unchanged keeps its value (the replay is a
    function of them: the clock only floors the queue fronts, and a
    booking not started by the clock already starts after it).  The
    workflows whose projection changed learn which executions did
    (:attr:`updated`).

    A call starts from scratch instead on the first call, when more than
    half the queued bookings would leave and enter again (a one-tenant
    run replans at almost every event), and when the kept state cannot be
    brought up to date: a precedence edge against queue order, a clock
    that went back, a new workflow order or performance profile.  From
    scratch is the fixed-point walk over the resources' queues, in
    resource order, each queue as far as its front's inputs are known.  A
    plan or facts carrying duplicate copies always start from scratch: a
    consumer reads a duplicate's output only if the walk reached the
    duplicate first, so there the result depends on the walk order
    (:attr:`order_dependent`), and the fixed-point walk is the order the
    replay has always had.

    The returned mappings belong to the state, which changes them in place
    on later calls: callers read them, and copy what they keep.
    """

    def __init__(self) -> None:
        self._tenants: Dict[int, _TenantReplay] = {}
        self._memos: Dict[int, tuple] = {}
        #: per resource: the sorted queue keys and their bookings
        self._queues: Dict[str, tuple] = {}
        self._incremental = False
        self._clock = 0.0
        self._perf_profile = None
        self._round = 0
        #: per entry of the last call: the executions whose projection it
        #: changed, or ``None`` where the projection mapping is new
        self.updated: List[Optional[List[Assignment]]] = []
        #: whether the last call replayed duplicate copies
        self.order_dependent = False

    # ------------------------------------------------------------------
    def replay(self, workflows: Sequence[tuple], perf_profile, clock: float):
        if (
            self._incremental
            and perf_profile is self._perf_profile
            and clock >= self._clock
        ):
            try:
                return self._update(workflows, perf_profile, clock)
            except _OutOfOrder:
                pass
        return self._rebuild(workflows, perf_profile, clock)

    def _memo(self, truth) -> dict:
        kept = self._memos.get(id(truth))
        if kept is not None and kept[0] is truth:
            return kept[1]
        memo: dict = {}
        self._memos[id(truth)] = (truth, memo)
        return memo

    def _load(self, workflows, clock: float) -> tuple:
        """Fresh replay records of ``workflows``: ``(tenants, bookings,
        free)``, ``free`` holding what the facts occupy past the clock."""
        memos, self._memos = self._memos, {}
        free: Dict[str, float] = {}
        bookings: List[_Booking] = []
        tenants: List[_TenantReplay] = []
        for position, (workflow, plan, started, truth) in enumerate(workflows):
            kept = memos.get(id(truth))
            memo = kept[1] if kept is not None and kept[0] is truth else {}
            self._memos[id(truth)] = (truth, memo)
            tenant = _TenantReplay(
                workflow, plan, started, truth, position * _RANK_STEP, memo, clock
            )
            tenants.append(tenant)
            for assignment in started.values():
                rid = assignment.resource_id
                if assignment.finish > free.get(rid, clock):
                    free[rid] = assignment.finish
            bookings.extend(tenant.queue(started))
        _prime_truth(tenants)
        return tenants, bookings, free

    def _rebuild(self, workflows, perf_profile, clock: float):
        """Replay every queue from scratch."""
        for tenant in self._tenants.values():
            tenant.bookings.clear()  # no booking ↔ workflow cycles left behind
        tenants, bookings, free = self._load(workflows, clock)
        order_dependent = any(b.dup is not None for b in bookings) or any(
            t.local for t in tenants
        )
        queues: Dict[str, List[_Booking]] = {}
        for booking in bookings:
            queues.setdefault(booking.rid, []).append(booking)
        pending = 0
        for queue in queues.values():
            queue.sort(key=_booking_key)
            pending += len(queue)
        heads = dict.fromkeys(queues, 0)
        progress = True
        while pending and progress:
            progress = False
            for rid in sorted(queues):
                queue = queues[rid]
                head = heads[rid]
                while head < len(queue):
                    booking = queue[head]
                    before = free.get(rid, clock)
                    replayed = booking.tenant.evaluate(booking, before, perf_profile)
                    if replayed is None:
                        break
                    booking.tenant.take(booking, before, *replayed)
                    free[rid] = replayed[1]
                    head += 1
                    pending -= 1
                    progress = True
                heads[rid] = head
        if pending:
            stalled = sorted(
                booking.tenant.jobs[booking.i]
                for rid, queue in queues.items()
                for booking in queue[heads[rid]:]
            )
            raise ValueError(
                f"actual-duration replay stalled; unplaced jobs: {stalled[:10]}"
            )
        self._tenants = {id(tenant.truth): tenant for tenant in tenants}
        self.order_dependent = order_dependent
        # the kept workflows are told apart by their truth models
        self._incremental = not order_dependent and len(self._tenants) == len(tenants)
        self._clock = clock
        self._perf_profile = perf_profile
        self._queues = {
            rid: ([booking.key for booking in queue], queue) for rid, queue in queues.items()
        }
        self.updated = [None] * len(tenants)
        return [tenant.projected for tenant in tenants]

    def _update(self, workflows, perf_profile, clock: float):
        """Bring the kept queues up to date and re-walk what changed."""
        self._round += 1
        round_ = self._round
        queues = self._queues
        kept = self._tenants
        heap: List[tuple] = []
        tick = count()
        current: list = [None]

        def push(booking: _Booking) -> None:
            if current[0] is not None and booking.key < current[0]:
                raise _OutOfOrder
            if booking.round != round_:  # not pending yet
                booking.round = round_
                heappush(heap, (booking.key, next(tick), booking))

        def settle(booking: _Booking, free: float) -> None:
            """``booking``'s resource is now free for it from ``free``: its
            start ``max(booked, free, inputs)`` moves only if ``free`` binds
            now or bound before."""
            actual = booking.actual
            if actual is None or not (booking.free < actual.start and free <= actual.start):
                push(booking)
            elif booking.round != round_:
                booking.free = free

        def enqueue(booking: _Booking) -> None:
            keys, queue = queues.setdefault(booking.rid, ([], []))
            at = bisect_left(keys, booking.key)
            keys.insert(at, booking.key)
            queue.insert(at, booking)
            push(booking)

        def dequeue(booking: _Booking) -> None:
            booking.alive = False
            keys, queue = queues[booking.rid]
            at = bisect_left(keys, booking.key)
            del keys[at], queue[at]
            if at < len(queue):
                push(queue[at])

        # match the entries to the kept workflows; their order must not change
        listed: List[tuple] = []
        facts_of: Dict[int, object] = {}
        previous = float("-inf")
        for entry in workflows:
            tenant = kept.get(id(entry[3]))
            if tenant is not None:
                if tenant.workflow is not entry[0] or tenant.rank <= previous:
                    raise _OutOfOrder
                previous = tenant.rank
                facts_of[id(tenant)] = entry[2]
            listed.append((entry, tenant))
        listed_ids = {id(entry[3]) for entry, _ in listed}
        # when most of the queued bookings would leave and enter again, one
        # walk from scratch is cheaper than re-walking nearly all of them
        moving = sum(
            len(tenant.bookings) if tenant is not None else len(entry[1])
            for entry, tenant in listed
            if tenant is None or tenant.plan is not entry[1]
        ) + sum(len(t.bookings) for key, t in kept.items() if key not in listed_ids)
        if 2 * moving > sum(len(queue) for _, queue in queues.values()):
            raise _OutOfOrder

        # workflows no longer listed leave
        for key in [key for key in kept if key not in listed_ids]:
            del self._memos[key]
            gone = kept.pop(key)
            for booking in gone.bookings.values():
                dequeue(booking)
            gone.bookings.clear()

        # started bookings leave their queue fronts as facts
        for keys, queue in queues.values():
            while queue:
                booking = queue[0]
                tenant = booking.tenant
                started = facts_of.get(id(tenant))
                job = tenant.jobs[booking.i]
                if started is None or job not in started:
                    break
                booking.alive = False
                del keys[0], queue[0]
                del tenant.bookings[booking.i]
                del tenant.projected[job]
                tenant.facts += 1
                if booking.actual.finish > clock:
                    tenant.live.append(booking.actual)

        # replanned workflows leave and enter again; new ones enter
        tenants: List[_TenantReplay] = []
        entering: List[_TenantReplay] = []
        rank = -_RANK_STEP
        for position, ((workflow, plan, started, truth), tenant) in enumerate(listed):
            if tenant is not None and tenant.plan is plan and tenant.facts == len(started):
                tenant.updated = []
                tenants.append(tenant)
                rank = tenant.rank
                continue
            if tenant is not None:
                for booking in tenant.bookings.values():
                    dequeue(booking)
                tenant.bookings.clear()
                rank = tenant.rank
            else:
                # between the previous workflow and the next kept one
                high = next((t.rank for _, t in listed[position + 1:] if t is not None), None)
                if high is None:
                    rank += _RANK_STEP
                elif high - rank >= 2:
                    rank = (rank + high) // 2
                else:
                    raise _OutOfOrder
            tenant = _TenantReplay(workflow, plan, started, truth, rank, self._memo(truth), clock)
            kept[id(truth)] = tenant
            tenants.append(tenant)
            entering.append(tenant)
            for booking in tenant.queue(started):
                if booking.dup is not None:
                    raise _OutOfOrder  # duplicate copies: the walk order matters
                enqueue(booking)
            if tenant.local:
                raise _OutOfOrder
        _prime_truth(entering)

        # what each resource is free from at the clock
        free: Dict[str, float] = {}
        for tenant in tenants:
            live = [a for a in tenant.live if a.finish > clock]
            tenant.live = live
            for assignment in live:
                rid = assignment.resource_id
                if assignment.finish > free.get(rid, clock):
                    free[rid] = assignment.finish
        for rid, (keys, queue) in queues.items():
            if queue:
                settle(queue[0], free.get(rid, clock))

        # re-walk, in queue order, what the changes reach
        while heap:
            key, _, booking = heappop(heap)
            if not booking.alive:
                continue
            current[0] = key
            rid = booking.rid
            keys, queue = queues[rid]
            at = bisect_left(keys, key)
            before = queue[at - 1].actual.finish if at else free.get(rid, clock)
            tenant = booking.tenant
            replayed = tenant.evaluate(booking, before, perf_profile)
            if replayed is None:
                raise _OutOfOrder
            start, finish = replayed
            old = booking.actual
            if old is not None and old.start == start and old.finish == finish:
                booking.free = before
                continue
            actual = tenant.take(booking, before, start, finish)
            if tenant.updated is not None:
                tenant.updated.append(actual)
            if old is not None and old.finish == finish:
                continue
            if at + 1 < len(queue):
                settle(queue[at + 1], finish)
            bookings = tenant.bookings
            for q in tenant.succ[booking.i]:
                successor = bookings.get(q)
                if successor is not None:
                    push(successor)
        self._clock = clock
        self.order_dependent = False
        self.updated = [tenant.updated for tenant in tenants]
        return [tenant.projected for tenant in tenants]


def describe_pool_event(event: PoolEvent) -> str:
    """Human-readable ``+joined -left`` rendering of a pool event."""
    parts = []
    if event.added:
        parts.append(f"+{','.join(event.added)}")
    if event.removed:
        parts.append(f"-{','.join(event.removed)}")
    return " ".join(parts) or "pool-change"


# ----------------------------------------------------------------------
# strategy runners
# ----------------------------------------------------------------------
def resolve_strategy(
    strategy,
    *,
    require: Optional[str] = None,
    default=None,
):
    """Resolve a runner's ``strategy``: a registry name or a scheduler object.

    A name is instantiated through :func:`repro.registry.make` (unknown
    names raise :class:`KeyError`); ``None`` falls back to ``default()``.
    ``require`` names an interface the resolved object must provide
    (``"reschedule"`` for the adaptive loop and the multi-tenant planner,
    ``"map_ready_jobs"`` for the just-in-time executor, ``"schedule"`` for
    plan-once execution); a missing one raises :class:`ValueError`.  This
    is the one place that answers "can this strategy replan?".
    """
    if isinstance(strategy, str):
        scheduler = registry.make("scheduler", strategy)
        label = strategy
    else:
        scheduler = strategy
        if scheduler is None and default is not None:
            scheduler = default()
        label = getattr(scheduler, "name", scheduler)
    if require and scheduler is not None and not hasattr(scheduler, require):
        raise ValueError(
            f"strategy {label!r} "
            f"does not provide the {require!r} interface required here"
        )
    return scheduler


def _pool_has_departures(pool: ResourcePool) -> bool:
    return any(
        pool.resource(rid).available_until is not None
        for rid in pool.all_resource_ids()
    )


def _resolve_actual_costs(
    costs: CostModel,
    actual_costs: Optional[CostModel],
    error_model: Optional[ErrorModel],
) -> Optional[CostModel]:
    """The ground-truth model of a run: explicit override or sampled truth."""
    if actual_costs is not None:
        return actual_costs
    if error_model is not None:
        return PerturbedCostModel(costs, error_model)
    return None


def _execute_static(
    workflow: Workflow,
    costs: CostModel,
    pool: ResourcePool,
    *,
    strategy=None,
    actual_costs: Optional[CostModel] = None,
    error_model: Optional[ErrorModel] = None,
    history: Optional[PerformanceHistoryRepository] = None,
    simulate: bool = False,
    perf_profile=None,
) -> AdaptiveRunResult:
    """Traditional static strategy: plan once on the initial pool.

    With ``simulate=True`` (or when ``actual_costs`` differs from the
    estimates) the schedule is executed on the discrete-event simulator and
    the *actual* makespan is reported; otherwise the planned makespan is
    used directly, which is identical under accurate estimates.  Pools with
    departures and non-trivial performance profiles force the simulation:
    the planned makespan is a fiction once resources can leave or slow down
    mid-run.  ``error_model`` samples a stochastic ground truth around the
    estimates (see :class:`~repro.workflow.costs.ErrorModel`); observed
    executions are reported to the optional ``history`` repository — the
    static strategy never replans, so the history only benefits later runs.
    ``strategy`` is any registered scheduler name (see
    :data:`repro.scheduling.registry.SCHEDULERS`) or a scheduler object;
    HEFT by default.
    """
    scheduler = resolve_strategy(strategy, require="schedule", default=HEFTScheduler)
    initial_resources = pool.available_at(0.0)
    if not initial_resources:
        raise ValueError("no resources available at time 0")
    schedule = scheduler.schedule(workflow, costs, initial_resources)
    actual_costs = _resolve_actual_costs(costs, actual_costs, error_model)
    trace = None
    needs_simulation = (
        simulate
        or actual_costs is not None
        # a supplied history wants observations, which only the executor's
        # Performance Monitor produces
        or history is not None
        or (perf_profile is not None and not getattr(perf_profile, "is_trivial", False))
        or _pool_has_departures(pool)
    )
    if needs_simulation:
        executor = StaticScheduleExecutor(
            workflow,
            costs,
            schedule,
            pool,
            actual_costs=actual_costs,
            strategy_name=getattr(scheduler, "name", "static"),
            perf_profile=perf_profile,
            history=history,
        )
        trace = executor.run()
    return AdaptiveRunResult(
        strategy=getattr(scheduler, "name", "static"),
        initial_schedule=schedule,
        final_schedule=schedule,
        trace=trace,
        killed_jobs=len({k.job_id for k in trace.kills}) if trace is not None else 0,
    )


def _execute_adaptive(
    workflow: Workflow,
    costs: CostModel,
    pool: ResourcePool,
    *,
    strategy=None,
    accept_only_if_better: bool = True,
    perf_profile=None,
    actual_costs: Optional[CostModel] = None,
    error_model: Optional[ErrorModel] = None,
    history: Optional[PerformanceHistoryRepository] = None,
    replan_on_deviation: Optional[float] = 0.1,
) -> AdaptiveRunResult:
    """AHEFT adaptive rescheduling reacting to every pool/performance change.

    ``error_model`` (or an explicit ``actual_costs`` truth model) switches
    the loop into the estimate-error regime: adopted bookings execute with
    sampled ground-truth durations, observed actuals are recorded into
    ``history`` (a fresh repository when not supplied), and each replan
    re-estimates the cost matrix via the
    :class:`~repro.core.predictor.Predictor` before calling AHEFT, closing
    the paper's Fig. 1 loop: it learns multiplicative per-resource
    corrections, exact for systematic resource bias.
    ``replan_on_deviation`` additionally triggers a re-evaluation whenever
    an observed completion misses its booking by the given fraction of the
    booked duration (``None`` limits replanning to grid events).

    ``strategy`` injects any scheduler (name or object) with the
    ``reschedule`` interface into the loop (``repro.run(..., mode=
    "adaptive", strategy="cpop")`` runs a CPOP-based adaptive loop) — the ablation hook that compares the
    paper's AHEFT against every other heuristic run adaptively.
    """
    loop = AdaptiveReschedulingLoop(
        resolve_strategy(strategy, require="reschedule", default=AHEFTScheduler),
        accept_only_if_better=accept_only_if_better,
    )
    explicit_truth = actual_costs is not None
    actual_costs = _resolve_actual_costs(costs, actual_costs, error_model)
    # A *null* error model means the estimates are the truth: there is
    # nothing for the history to teach, so re-estimation stays off and the
    # run is bit-identical to the loop's exact case.  (Re-estimating anyway
    # would still change plans: observations aggregate per operation, which
    # differs from the per-job priors even with zero noise.)  An explicitly
    # supplied history or truth model opts back in.
    noisy_truth = explicit_truth or (error_model is not None and not error_model.is_null)
    predictor = None
    if noisy_truth or history is not None:
        predictor = Predictor(
            history if history is not None else PerformanceHistoryRepository()
        )
    return loop.run(
        workflow,
        costs,
        pool,
        perf_profile=perf_profile,
        actual_costs=actual_costs,
        predictor=predictor,
        replan_on_deviation=replan_on_deviation,
    )


def _execute_dynamic(
    workflow: Workflow,
    costs: CostModel,
    pool: ResourcePool,
    *,
    strategy=None,
    actual_costs: Optional[CostModel] = None,
    error_model: Optional[ErrorModel] = None,
    history: Optional[PerformanceHistoryRepository] = None,
    perf_profile=None,
) -> AdaptiveRunResult:
    """Dynamic just-in-time strategy executed on the event simulator.

    ``strategy`` is any scheduler (name or object) with the batch
    ``map_ready_jobs`` interface (minmin, maxmin, sufferage); Min-Min by
    default.
    """
    executor = JustInTimeExecutor(
        workflow,
        costs,
        pool,
        mapper=resolve_strategy(
            strategy, require="map_ready_jobs", default=MinMinScheduler
        ),
        actual_costs=_resolve_actual_costs(costs, actual_costs, error_model),
        perf_profile=perf_profile,
        history=history,
    )
    trace = executor.run()
    schedule = trace.to_schedule()
    return AdaptiveRunResult(
        strategy=executor.strategy_name,
        initial_schedule=schedule,
        final_schedule=schedule,
        trace=trace,
        killed_jobs=len({k.job_id for k in trace.kills}),
    )
