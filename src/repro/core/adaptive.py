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

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro import registry
from repro.core.history import PerformanceHistoryRepository
from repro.core.predictor import Predictor
from repro.generators.costs import WorkflowCase
from repro.resources.pool import PoolEvent, ResourcePool
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import (
    Assignment,
    ExecutionState,
    JobStatus,
    Schedule,
    TIME_EPS,
)
from repro.scheduling.bookings import as_busy_view
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.minmin import MinMinScheduler
from repro.simulation.executor import (
    JustInTimeExecutor,
    StaticScheduleExecutor,
    dispatch_duration,
    record_observation,
)
from repro.simulation.shared_grid import SharedGridExecutor
from repro.simulation.trace import ExecutionTrace, KillRecord
from repro.workflow.costs import CostModel, ErrorModel, PerturbedCostModel
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
        executed = self.schedule if actual is None else actual.started
        state = ExecutionState.from_schedule(executed, clock, jobs=workflow.jobs)
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
        for job in self.workflow.jobs:
            status = state.job_status(job)
            if status is JobStatus.FINISHED:
                continue
            if status is JobStatus.RUNNING and state.executed_on.get(job) in removed:
                start = state.actual_start.pop(job)
                resource = state.executed_on.pop(job)
                wasted += clock - start
                killed.append(job)
                self.kills.append(KillRecord(job, resource, start, clock))
                state.status[job] = JobStatus.NOT_STARTED
                forced = True
            elif status is JobStatus.NOT_STARTED:
                assignment = schedule.get(job)
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
        self._index = workflow.structure().index
        #: ground truth of every job that has started (running or finished)
        self.started: Dict[str, Assignment] = {}
        #: ground truth of every started duplicate copy, per (job, resource)
        self.started_duplicates: Dict[tuple, Assignment] = {}
        self._finished: set = set()
        #: the current plan's actual future: primaries and duplicates
        self.projection: Dict[str, Assignment] = {}
        self.duplicate_projection: Dict[tuple, Assignment] = {}

    def facts(self) -> Dict[object, Assignment]:
        """Every started execution, keyed like :func:`project_actuals`."""
        if self.started_duplicates:
            return {**self.started, **self.started_duplicates}
        return self.started

    def track(self, projected: Dict[object, Assignment]) -> None:
        """Take the plan's replayed future (primaries and duplicates)."""
        duplicates = {}
        for key in [key for key in projected if isinstance(key, tuple)]:
            duplicates[key] = projected.pop(key)
        self.projection = projected
        self.duplicate_projection = duplicates

    def completion(self) -> float:
        """The projected actual completion of the workflow."""
        return max(
            [a.finish for a in self.started.values()]
            + [a.finish for a in self.projection.values()],
            default=0.0,
        )

    def _finish(self, assignments: List[Assignment]) -> None:
        """Mark executions finished and report them in completion order."""
        index = self._index
        assignments.sort(key=lambda a: (a.finish, a.start, index[a.job_id]))
        for assignment in assignments:
            self._finished.add(assignment.job_id)
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
        index = self._index
        started = self.started
        newly_started = [
            a for a in self.projection.values()
            if a.job_id not in started and a.start <= clock + TIME_EPS
        ]
        newly_started.sort(key=lambda a: (a.start, a.finish, index[a.job_id]))
        for assignment in newly_started:
            started[assignment.job_id] = assignment
        for key, assignment in self.duplicate_projection.items():
            if assignment.start <= clock + TIME_EPS:
                self.started_duplicates[key] = assignment
        self._finish([
            a for job, a in started.items()
            if job not in self._finished and a.finish <= clock + TIME_EPS
        ])

    def forget(self, killed: Sequence[str], removed: FrozenSet[str], clock: float) -> None:
        """Drop the executions a departure at ``clock`` killed."""
        for job in killed:
            del self.started[job]
        # a duplicate running on a departed resource is lost
        for key, duplicate in list(self.started_duplicates.items()):
            if duplicate.resource_id in removed and duplicate.finish > clock + TIME_EPS:
                del self.started_duplicates[key]

    def sync_belief(
        self, plan: Schedule, state: ExecutionState, effective: CostModel
    ) -> tuple:
        """Substitute observed facts into the plan; never re-time futures.

        Returns ``(synced, changed)`` where ``changed`` flags any deviation
        between the plan and the observed actuals.  A running job keeps its
        *booked duration* shifted to its actual start (speed frozen at
        dispatch, estimate unchanged), floored at the clock — the planner
        knows an overdue job cannot finish in the past.  A running job
        without a booking on its resource is priced by ``effective``, the
        step's estimate.
        """
        synced = Schedule(name=plan.name)
        changed = False
        clock = state.clock
        for duplicate in plan.duplicates:
            # started duplicate executions are facts (see repair_schedule);
            # one booked to have started but still waiting is dropped
            if duplicate.start > clock + TIME_EPS:
                continue
            actual = self.started_duplicates.get((duplicate.job_id, duplicate.resource_id))
            if actual != duplicate:
                changed = True
            if actual is not None:
                synced.add_duplicate(actual)
        for job in self.workflow.jobs:
            booked = plan.get(job)
            if state.is_finished(job):
                actual = self.started[job]
                synced.add(actual)
                if actual != booked:
                    changed = True
            elif state.is_running(job):
                running = self.started[job]
                rid, start = running.resource_id, running.start
                if booked is not None and booked.resource_id == rid:
                    if start == booked.start:
                        belief_finish = booked.finish
                    else:
                        belief_finish = start + (booked.finish - booked.start)
                        changed = True
                else:
                    belief_finish = start + effective.computation_cost(job, rid)
                    changed = True
                belief_finish = max(belief_finish, clock)
                synced.add(Assignment(job, rid, start, belief_finish))
            elif booked is not None:
                synced.add(booked)
        return synced, changed

    def next_deviation(self, plan: Schedule, after: float) -> Optional[float]:
        """Earliest completion after ``after`` deviating beyond the threshold.

        The monitor learns a job's actual duration when it completes; a
        completion whose time differs from ``plan``'s booked finish by more
        than ``replan_on_deviation`` of the booked duration is an event of
        interest.
        """
        threshold = self.replan_on_deviation
        if threshold is None:
            return None
        earliest: Optional[float] = None
        for job, actual in list(self.started.items()) + list(self.projection.items()):
            if actual.finish <= after + TIME_EPS:
                continue
            booked = plan.get(job)
            if booked is None:
                continue
            slack = threshold * max(booked.duration, TIME_EPS)
            if abs(actual.finish - booked.finish) <= slack:
                continue
            if earliest is None or actual.finish < earliest:
                earliest = actual.finish
        return earliest

    def drain(self) -> tuple:
        """Run the projected tail: ``(primaries, duplicates)`` executed."""
        started = self.started
        for assignment in self.projection.values():
            started.setdefault(assignment.job_id, assignment)
        for key, assignment in self.duplicate_projection.items():
            self.started_duplicates.setdefault(key, assignment)
        self._finish([a for job, a in started.items() if job not in self._finished])
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
    repaired = Schedule(name=schedule.name)
    free: Dict[str, float] = {}
    view = as_busy_view(busy) if busy else {}
    foreign = {rid: view.timeline(rid, clock) for rid in view}

    # Historical duplicates (duplication-based strategies) that began
    # executing by ``clock`` are facts: keep them so the pinned history
    # stays precedence-feasible, and block their resources while they run.
    # Future duplicates are dropped — the re-timing below prices every
    # not-started job off the primary copies, which is feasible without
    # them, and the next real replanning pass re-derives duplicates.
    for duplicate in schedule.duplicates:
        if duplicate.start > clock + TIME_EPS:
            continue
        if duplicate.resource_id not in column and duplicate.finish > clock + TIME_EPS:
            continue
        repaired.add_duplicate(duplicate)
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
    booked = [schedule.get(job) for job in jobs]
    executed_on = state.executed_on
    #: per dense id: the repaired finish (``clock`` for an unmapped job)
    finish: List[float] = [clock] * len(jobs)
    #: per dense id: where the job's output is produced (``None``: unmapped,
    #: which consumers read as local data)
    source: List[Optional[str]] = [None] * len(jobs)
    #: per dense id: finished or running, i.e. not re-timed
    kept = bytearray(len(jobs))
    running: List[int] = []
    for i, job in enumerate(jobs):
        assignment = booked[i]
        if job in executed_on:
            source[i] = executed_on[job]
        elif assignment is not None:
            source[i] = assignment.resource_id
        status = state.job_status(job)
        if status is JobStatus.FINISHED:
            actual_finish = state.actual_finish[job]
            repaired.add(
                Assignment(job, executed_on[job], state.actual_start[job], actual_finish)
            )
            finish[i] = actual_finish
            kept[i] = 1
        elif status is JobStatus.RUNNING and assignment is not None:
            running.append(i)
    for i in running:
        # speed frozen at dispatch: the in-flight job finishes as scheduled
        assignment = booked[i]
        rid = assignment.resource_id
        repaired.add(assignment)
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
            repaired.add(assignment)
            finish[i] = assignment.finish
            continue
        ready = clock
        for p, comm in pred_comm[i]:
            src = source[p]
            arrival = finish[p] + (0.0 if src is None or src == rid else comm)
            if arrival > ready:
                ready = arrival
        start = max(ready, free.get(rid, clock))
        duration = rows[i][j] if rows is not None else costs.computation_cost(jobs[i], rid)
        if rid in foreign:
            start = foreign[rid].earliest_start(start, duration)
        finish[i] = start + duration
        repaired.add(Assignment(jobs[i], rid, start, finish[i]))
        free[rid] = finish[i]
    return repaired


#: replay queue order: booked start, booked finish, workflow order, job id
_queue_order = itemgetter(0, 1, 2, 3)


def project_actuals(
    workflows: Sequence[tuple],
    *,
    perf_profile=None,
    clock: float = 0.0,
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
    non-overlapping plans is acyclic, so the fixed-point pass below always
    terminates with every execution placed.

    Precedence is walked on each workflow's dense ``structure()`` ids, with
    every primary's actual finish and resource in index-addressed lists.
    When the truth has uniform communication and prices this workflow, a
    transfer is ``0.0`` on the same resource and ``c̄`` from
    ``truth.predecessor_communications()`` otherwise; a pairwise truth is
    asked ``communication_cost`` per crossing.  Durations stay lazy:
    :func:`~repro.simulation.executor.dispatch_duration` prices each
    replayed execution through ``truth.computation_cost``, because a
    sampled truth draws one factor per (job, resource) pair it is asked
    about, and only a small share of all pairs is ever dispatched — a
    dense truth matrix would draw every one of them.
    """
    free: Dict[str, float] = {}
    #: per resource: (start, finish, workflow index, job, duplicate key, dense id)
    queues: Dict[str, list] = {}
    #: per workflow: (job names, (pred, c̄) pairs per job, pairwise transfer
    #: query or None, primary finish per job, primary resource per job,
    #: finish of the duplicate copies replayed so far, truth, replayed)
    replays: List[tuple] = []
    projected: List[Dict[object, Assignment]] = [{} for _ in workflows]
    for index, (workflow, plan, started, truth) in enumerate(workflows):
        structure = workflow.structure()
        jobs = structure.jobs
        position = structure.index
        if truth.has_uniform_communication and truth.workflow is workflow:
            pred_comm = truth.predecessor_communications()
            pairwise = None
        else:
            pred_comm = [[(p, 0.0) for p in preds] for preds in structure.pred]
            pairwise = truth.communication_cost
        finish_of: List[Optional[float]] = [None] * len(jobs)
        resource_of: List[Optional[str]] = [None] * len(jobs)
        for key, assignment in started.items():
            rid = assignment.resource_id
            if assignment.finish > free.get(rid, clock):
                free[rid] = assignment.finish
            i = position.get(key) if isinstance(key, str) else None
            if i is not None:
                finish_of[i] = assignment.finish
                resource_of[i] = rid
        for a in plan:
            if a.job_id not in started:
                queues.setdefault(a.resource_id, []).append(
                    (a.start, a.finish, index, a.job_id, None, position[a.job_id])
                )
        local: Dict[tuple, float] = {}
        for d in plan.duplicates:
            key = (d.job_id, d.resource_id)
            fact = started.get(key)
            if fact is not None:
                local[key] = fact.finish
            else:
                queues.setdefault(d.resource_id, []).append(
                    (d.start, d.finish, index, d.job_id, key, position[d.job_id])
                )
        replays.append(
            (jobs, pred_comm, pairwise, finish_of, resource_of, local, truth, projected[index])
        )
    pending = 0
    for queue in queues.values():
        queue.sort(key=_queue_order)
        pending += len(queue)
    heads = dict.fromkeys(queues, 0)

    progress = True
    while pending and progress:
        progress = False
        for rid in sorted(queues):
            queue = queues[rid]
            head = heads[rid]
            while head < len(queue):
                start, _, index, job, key, i = queue[head]
                (
                    jobs, pred_comm, pairwise, finish_of, resource_of, local, truth, done
                ) = replays[index]
                resolved = True
                ready = max(start, free.get(rid, clock))
                for p, comm in pred_comm[i]:
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
                            resolved = False
                            break
                    if arrival > ready:
                        ready = arrival
                if not resolved:
                    break
                duration = dispatch_duration(truth, job, rid, ready, perf_profile)
                actual = Assignment(job, rid, ready, ready + duration)
                if key is None:
                    done[job] = actual
                    finish_of[i] = actual.finish
                    resource_of[i] = rid
                else:
                    done[key] = actual
                    local[key] = actual.finish
                free[rid] = actual.finish
                head += 1
                pending -= 1
                progress = True
            heads[rid] = head
    if pending:
        stalled = sorted(
            entry[3] for rid, queue in queues.items() for entry in queue[heads[rid]:]
        )
        raise ValueError(
            f"actual-duration replay stalled; unplaced jobs: {stalled[:10]}"
        )
    return projected


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
    departure_policy: str = "failover",
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
            departure_policy=departure_policy,
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
