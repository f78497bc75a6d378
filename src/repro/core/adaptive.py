"""The generic adaptive rescheduling loop (paper Fig. 2) and strategy runners.

:class:`AdaptiveReschedulingLoop` is the paper's algorithm: starting from an
initial static schedule ``S0``, every event of interest triggers a
re-estimation and a candidate schedule ``S1`` for the unfinished part of the
DAG; ``S1`` replaces ``S0`` only if it is an initial schedule or its
predicted makespan is smaller (Fig. 2 lines 7–9).

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
from typing import Dict, List, Optional, Sequence

from repro.core.history import PerformanceHistoryRepository
from repro.core.predictor import Predictor
from repro.resources.pool import PoolEvent, ResourcePool
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import (
    Assignment,
    ExecutionState,
    JobStatus,
    Schedule,
    TIME_EPS,
)
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.minmin import MinMinScheduler
from repro.simulation.event_core import Event, EventCore, EventKind
from repro.simulation.executor import JustInTimeExecutor, StaticScheduleExecutor
from repro.simulation.trace import ExecutionTrace
from repro.workflow.costs import CostModel, ErrorModel, PerturbedCostModel
from repro.workflow.dag import Workflow

__all__ = [
    "ReschedulingDecision",
    "AdaptiveRunResult",
    "AdaptiveReschedulingLoop",
    "apply_departure_kills",
    "describe_pool_event",
    "project_actuals",
    "repair_schedule",
    "resolve_strategy",
]


def apply_departure_kills(
    workflow: Workflow,
    schedule: Schedule,
    state: ExecutionState,
    removed: frozenset,
) -> tuple:
    """Apply a departure event to an execution-state snapshot.

    Jobs *running* on a removed resource at ``state.clock`` are killed:
    their partial execution is counted as wasted work and their status is
    reset to not-started (mutating ``state`` in place) so the next
    rescheduling pass re-maps them.  Unfinished work mapped to a removed
    resource — killed or merely planned there — makes the current plan
    infeasible, which forces the caller to adopt the replacement candidate
    regardless of the accept-if-better rule.

    Returns ``(wasted, killed_jobs, forced)``: the execution time thrown
    away, the set of killed job ids, and the infeasibility flag.  Shared by
    the single-workflow :class:`AdaptiveReschedulingLoop` and the
    multi-tenant planner so both apply identical departure semantics.

    Duplicate copies (HEFT with task duplication) count towards
    infeasibility too: an unfinished duplicate stranded on a departing
    resource invalidates the consumers planned around its local data, so
    the replacement candidate — which re-derives duplicates from scratch
    on the surviving pool — must be adopted unconditionally.
    """
    wasted = 0.0
    killed: set = set()
    forced = False
    if not removed:
        return wasted, killed, forced
    clock = state.clock
    for job in workflow.jobs:
        status = state.job_status(job)
        if status is JobStatus.FINISHED:
            continue
        if status is JobStatus.RUNNING and state.executed_on.get(job) in removed:
            wasted += clock - state.actual_start[job]
            killed.add(job)
            state.status[job] = JobStatus.NOT_STARTED
            state.actual_start.pop(job, None)
            state.executed_on.pop(job, None)
            forced = True
        elif status is JobStatus.NOT_STARTED:
            assignment = schedule.get(job)
            if assignment is not None and assignment.resource_id in removed:
                forced = True
    for duplicate in schedule.duplicates:
        if duplicate.resource_id in removed and duplicate.finish > clock + TIME_EPS:
            forced = True
    return wasted, killed, forced


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
    #: wasted work recorded by the analytic planning loop (simulated runs
    #: report it through the trace instead — see :attr:`wasted_work`).
    planned_wasted_work: float = 0.0

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
        if self.trace is not None:
            return self.trace.wasted_work()
        return self.planned_wasted_work


class AdaptiveReschedulingLoop:
    """The event-driven planning loop of paper Fig. 2.

    Parameters
    ----------
    scheduler:
        The heuristic ``H`` plugged into ``schedule(S0, P, H)``; AHEFT by
        default (any object with ``schedule``/``reschedule`` methods works).
    accept_only_if_better:
        Fig. 2 line 7: adopt the candidate only when its predicted makespan
        improves on the current plan.  Setting this to ``False`` (always
        adopt) is exposed for the ablation benchmark.
    epsilon:
        Minimum makespan improvement regarded as "better".
    """

    def __init__(
        self,
        scheduler: Optional[AHEFTScheduler] = None,
        *,
        accept_only_if_better: bool = True,
        epsilon: float = 1e-9,
    ) -> None:
        self.scheduler = scheduler or AHEFTScheduler()
        self.accept_only_if_better = accept_only_if_better
        self.epsilon = float(epsilon)

    # ------------------------------------------------------------------
    def run(
        self,
        workflow: Workflow,
        costs: CostModel,
        pool: ResourcePool,
        *,
        events: Optional[Sequence[PoolEvent]] = None,
        strategy_name: Optional[str] = None,
        perf_profile=None,
        actual_costs: Optional[CostModel] = None,
        predictor: Optional[Predictor] = None,
        observe: bool = True,
        replan_on_deviation: Optional[float] = 0.1,
    ) -> AdaptiveRunResult:
        """Plan, then react to every event until the workflow finishes.

        Under the accurate-estimation assumption the execution state at each
        event time can be read directly off the schedule being executed
        (jobs finish exactly when scheduled), so the loop advances
        analytically from event to event — which is also how the paper's
        simulation treats static and adaptive strategies.

        Beyond the paper's join-only events the loop honours the adversarial
        scenario vocabulary:

        * **departures** — jobs running on a departing resource at the event
          time are killed (their partial execution counted as wasted work)
          and return to the unscheduled set; if any unfinished work was
          mapped to a departed resource the previous plan is *infeasible*
          and the candidate is adopted regardless of the accept-if-better
          rule (``forced`` decisions);
        * **performance changes** — when ``perf_profile`` marks a factor
          change at the event time, the current plan's remaining finish
          times are first *repaired* under the new factors (see
          :func:`repair_schedule`) so the accept rule compares the candidate
          against an honest baseline, and the candidate itself is planned
          with the degraded cost model.

        With ``actual_costs`` (a sampled ground truth, typically a
        :class:`~repro.workflow.costs.PerturbedCostModel`) and/or a
        ``predictor`` the loop leaves the accurate-estimation regime and
        closes the paper's Fig. 1 feedback cycle instead — see
        :meth:`_run_uncertain`.
        """
        if actual_costs is None and predictor is None:
            return self._run_analytic(
                workflow,
                costs,
                pool,
                events=events,
                strategy_name=strategy_name,
                perf_profile=perf_profile,
            )
        return self._run_uncertain(
            workflow,
            costs,
            pool,
            events=events,
            strategy_name=strategy_name,
            perf_profile=perf_profile,
            actual_costs=actual_costs,
            predictor=predictor,
            observe=observe,
            replan_on_deviation=replan_on_deviation,
        )

    # ------------------------------------------------------------------
    def _run_analytic(
        self,
        workflow: Workflow,
        costs: CostModel,
        pool: ResourcePool,
        *,
        events: Optional[Sequence[PoolEvent]],
        strategy_name: Optional[str],
        perf_profile,
    ) -> AdaptiveRunResult:
        """The paper's analytic loop: actual durations equal the estimates."""
        initial_resources = pool.available_at(0.0)
        if not initial_resources:
            raise ValueError("no resources available at time 0")
        current = self.scheduler.schedule(workflow, costs, initial_resources)
        initial = current
        decisions: List[ReschedulingDecision] = []
        wasted = 0.0
        killed_jobs: set = set()

        triggers, perf_times = _merge_triggers(
            list(events) if events is not None else pool.events(), perf_profile
        )

        core = EventCore()

        def on_trigger(clock: float, event: Optional[PoolEvent]) -> None:
            nonlocal current, wasted, killed_jobs
            if clock >= current.makespan() - TIME_EPS:
                core.stop()  # the workflow finished before this event
                return
            resources = pool.available_at(clock)
            if not resources:
                return
            state = ExecutionState.from_schedule(current, clock, jobs=workflow.jobs)

            removed_set = frozenset(event.removed) if event is not None else frozenset()
            wasted_delta, killed, forced = apply_departure_kills(
                workflow, current, state, removed_set
            )
            wasted += wasted_delta
            killed_jobs |= killed

            effective_costs = costs
            if perf_profile is not None:
                effective_costs = perf_profile.scaled_costs(costs, clock)
                if clock in perf_times:
                    current = repair_schedule(
                        workflow,
                        current,
                        state,
                        effective_costs,
                        clock=clock,
                        resources=resources,
                    )

            candidate = self.scheduler.reschedule(
                workflow,
                effective_costs,
                resources,
                clock=clock,
                previous_schedule=current,
                execution_state=state,
            )
            adopt = (
                forced
                or not self.accept_only_if_better
                or candidate.makespan() < current.makespan() - self.epsilon
            )
            decisions.append(
                ReschedulingDecision(
                    time=clock,
                    event=describe_pool_event(event) if event is not None else "perf-change",
                    previous_makespan=current.makespan(),
                    candidate_makespan=candidate.makespan(),
                    adopted=adopt,
                    forced=forced,
                )
            )
            if adopt:
                current = candidate

        for clock in sorted(triggers):
            event = triggers[clock]
            core.post(
                clock,
                lambda c=clock, e=event: on_trigger(c, e),
                kind=EventKind.POOL_CHANGE if event is not None else EventKind.PERF_CHANGE,
                label=describe_pool_event(event) if event is not None else "perf-change",
            )
        core.run()
        return AdaptiveRunResult(
            strategy=strategy_name or getattr(self.scheduler, "name", "adaptive"),
            initial_schedule=initial,
            final_schedule=current,
            decisions=decisions,
            killed_jobs=len(killed_jobs),
            planned_wasted_work=wasted,
        )

    # ------------------------------------------------------------------
    def _run_uncertain(
        self,
        workflow: Workflow,
        costs: CostModel,
        pool: ResourcePool,
        *,
        events: Optional[Sequence[PoolEvent]],
        strategy_name: Optional[str],
        perf_profile,
        actual_costs: Optional[CostModel],
        predictor: Optional[Predictor],
        observe: bool,
        replan_on_deviation: Optional[float],
    ) -> AdaptiveRunResult:
        """The Fig. 1 loop under *inaccurate* estimates.

        The Planner keeps planning on estimates (optionally re-estimated by
        the ``predictor`` from accumulated history), while the simulated
        grid executes the adopted bookings with the sampled ground-truth
        durations of ``actual_costs``.  Bookings are *reservations*: a job
        never starts before its booked start, and deviations push it (and
        its successors, and everything queued behind it on the resource)
        later — with a null error model the replay therefore reproduces the
        analytic loop bit for bit.

        At every trigger (pool change or performance change) the loop:

        1. advances the ground truth to the trigger time, committing actual
           starts/finishes (the Performance Monitor's report);
        2. records each newly finished job's observed duration in the
           predictor's history repository (Fig. 1: Scheduler → Performance
           History Repository);
        3. applies departure kills against the *actual* execution state;
        4. re-estimates the cost matrix via the predictor (history-blended
           prior) and the performance profile;
        5. syncs the belief plan with the observed facts and, when anything
           deviated, repairs its remaining timings under the re-estimated
           model so the accept rule has an honest baseline;
        6. asks the scheduler for a candidate and applies the usual
           accept-if-better (or forced) rule.

        Beyond the grid events, ``replan_on_deviation`` arms the monitor's
        own trigger: when a job's observed completion deviates from its
        booked one by more than the given fraction of its booked duration,
        the Planner re-evaluates at that completion instant (an extra
        decision with event label ``"deviation"``).  This is how the
        adaptive strategy *absorbs* estimate error between grid events —
        without it, accumulated delays would just push the reservation
        timeline back.  Zero noise produces zero deviations, so the trigger
        never fires on accurate estimates and bit-identity with the
        analytic loop is preserved.  ``None`` disables it.

        The returned result carries an :class:`ExecutionTrace` of the
        actual execution, so ``result.makespan`` is the achieved (not the
        predicted) makespan.
        """
        initial_resources = pool.available_at(0.0)
        if not initial_resources:
            raise ValueError("no resources available at time 0")
        truth = actual_costs if actual_costs is not None else costs
        history = predictor.history if predictor is not None else None

        def estimated(clock: float) -> CostModel:
            model = costs
            if predictor is not None:
                model = predictor.estimate(costs)
            if perf_profile is not None:
                model = perf_profile.scaled_costs(model, clock)
            return model

        current = self.scheduler.schedule(workflow, estimated(0.0), initial_resources)
        initial = current
        decisions: List[ReschedulingDecision] = []
        wasted = 0.0
        killed_jobs: set = set()
        name = strategy_name or getattr(self.scheduler, "name", "adaptive")
        trace = ExecutionTrace(workflow_name=workflow.name, strategy=name)

        job_index = {job: i for i, job in enumerate(workflow.jobs)}
        #: ground truth of every job that has started (running or finished)
        truth_assign: Dict[str, Assignment] = {}
        #: ground truth of every started duplicate copy, per (job, resource)
        truth_dups: Dict[tuple, Assignment] = {}
        finished: set = set()
        recorded: set = set()

        def record_observation(assignment: Assignment) -> None:
            """Report a completed execution to the history repository.

            The observed wall-clock duration is normalised by the (known)
            performance factor at dispatch, so the history isolates the
            *estimate error* from the slowdown the profile already told the
            Planner about — otherwise the predictor would double-count
            degradations it replans around anyway.
            """
            if history is None or not observe or assignment.job_id in recorded:
                return
            duration = assignment.finish - assignment.start
            if perf_profile is not None:
                factor = perf_profile.factor_at(
                    assignment.resource_id, assignment.start
                )
                if factor != 1.0:
                    duration /= factor
            history.record_execution(
                workflow.job(assignment.job_id).operation,
                assignment.resource_id,
                duration,
                job_id=assignment.job_id,
                finished_at=assignment.finish,
                estimated=costs.computation_cost(
                    assignment.job_id, assignment.resource_id
                ),
            )
            recorded.add(assignment.job_id)

        def project(plan: Schedule) -> tuple:
            """The plan's actual future: ``(primaries, duplicates)``."""
            projected = project_actuals(
                workflow,
                plan,
                {**truth_assign, **truth_dups} if truth_dups else truth_assign,
                truth,
                perf_profile=perf_profile,
            )
            duplicates = {}
            if plan.duplicates:
                for key in [key for key in projected if isinstance(key, tuple)]:
                    duplicates[key] = projected.pop(key)
            return projected, duplicates

        def commit(
            projection: Dict[str, Assignment],
            dup_projection: Dict[tuple, Assignment],
            clock: float,
        ) -> None:
            """Advance the ground truth to ``clock`` (the monitor's report)."""
            started = [
                a for a in projection.values()
                if a.job_id not in truth_assign and a.start <= clock + TIME_EPS
            ]
            started.sort(key=lambda a: (a.start, a.finish, job_index[a.job_id]))
            for assignment in started:
                truth_assign[assignment.job_id] = assignment
            for key, assignment in dup_projection.items():
                if assignment.start <= clock + TIME_EPS:
                    truth_dups[key] = assignment
            newly_finished = [
                a for job, a in truth_assign.items()
                if job not in finished and a.finish <= clock + TIME_EPS
            ]
            newly_finished.sort(key=lambda a: (a.finish, a.start, job_index[a.job_id]))
            for assignment in newly_finished:
                finished.add(assignment.job_id)
                record_observation(assignment)

        def snapshot(clock: float) -> ExecutionState:
            """The actual execution state at ``clock`` (mirrors
            :meth:`ExecutionState.from_schedule` conventions exactly)."""
            state = ExecutionState(clock=float(clock))
            for job in workflow.jobs:
                assignment = truth_assign.get(job)
                if assignment is None:
                    state.status[job] = JobStatus.NOT_STARTED
                    continue
                state.executed_on[job] = assignment.resource_id
                state.actual_start[job] = assignment.start
                if job in finished:
                    state.status[job] = JobStatus.FINISHED
                    state.actual_finish[job] = assignment.finish
                    state.data_arrivals[(job, assignment.resource_id)] = assignment.finish
                else:
                    state.status[job] = JobStatus.RUNNING
            return state

        def sync_belief(plan: Schedule, state: ExecutionState) -> tuple:
            """Substitute observed facts into the plan; never re-time futures.

            Returns ``(synced, changed)`` where ``changed`` flags any
            deviation between the plan and the observed actuals.  A running
            job keeps its *booked duration* shifted to its actual start
            (speed frozen at dispatch, estimate unchanged), floored at the
            clock — the planner knows an overdue job cannot finish in the
            past.
            """
            synced = Schedule(name=plan.name)
            changed = False
            clock = state.clock
            for duplicate in plan.duplicates:
                # started duplicate executions are facts (see repair_schedule);
                # one booked to have started but still waiting is dropped
                if duplicate.start > clock + TIME_EPS:
                    continue
                actual = truth_dups.get((duplicate.job_id, duplicate.resource_id))
                if actual != duplicate:
                    changed = True
                if actual is not None:
                    synced.add_duplicate(actual)
            for job in workflow.jobs:
                booked = plan.get(job)
                if state.is_finished(job):
                    actual = Assignment(
                        job,
                        state.executed_on[job],
                        state.actual_start[job],
                        state.actual_finish[job],
                    )
                    synced.add(actual)
                    if (
                        booked is None
                        or booked.resource_id != actual.resource_id
                        or booked.start != actual.start
                        or booked.finish != actual.finish
                    ):
                        changed = True
                elif state.is_running(job):
                    rid = state.executed_on[job]
                    start = state.actual_start[job]
                    if booked is not None and booked.resource_id == rid:
                        if start == booked.start:
                            belief_finish = booked.finish
                        else:
                            belief_finish = start + (booked.finish - booked.start)
                            changed = True
                    else:
                        belief_finish = start + estimated(clock).computation_cost(job, rid)
                        changed = True
                    belief_finish = max(belief_finish, clock)
                    synced.add(Assignment(job, rid, start, belief_finish))
                elif booked is not None:
                    synced.add(booked)
            return synced, changed

        triggers, perf_times = _merge_triggers(
            list(events) if events is not None else pool.events(), perf_profile
        )

        def next_deviation(projection: Dict[str, Assignment], after: float) -> Optional[float]:
            """Earliest future completion deviating beyond the threshold.

            The monitor learns a job's actual duration when it completes;
            a completion whose time differs from the current plan's booked
            finish by more than ``replan_on_deviation`` of the booked
            duration is an event of interest.  Only completions strictly
            after ``after`` (the last processed trigger) can still fire.
            """
            if replan_on_deviation is None:
                return None
            earliest: Optional[float] = None
            for job, actual in list(truth_assign.items()) + list(projection.items()):
                if actual.finish <= after + TIME_EPS:
                    continue
                booked = current.get(job)
                if booked is None:
                    continue
                slack = replan_on_deviation * max(booked.duration, TIME_EPS)
                if abs(actual.finish - booked.finish) <= slack:
                    continue
                if earliest is None or actual.finish < earliest:
                    earliest = actual.finish
            return earliest

        static_times = sorted(triggers)
        static_index = 0
        last_clock = float("-inf")
        projection, dup_projection = project(current)

        core = EventCore()
        deviation_event: Optional[Event] = None

        def arm_deviation() -> None:
            """(Re)arm the monitor's single pending deviation trigger.

            The next deviating completion becomes an event only when it
            *strictly* precedes the next grid event (minus ``TIME_EPS``):
            on a tie the grid event is the trigger and the deviation is
            absorbed into its re-evaluation.  Recomputed after every
            processed trigger, because each adoption moves the projected
            completions.
            """
            nonlocal deviation_event
            if deviation_event is not None:
                deviation_event.cancel()
                deviation_event = None
            deviation_at = next_deviation(projection, last_clock)
            if deviation_at is None:
                return
            next_static = (
                static_times[static_index]
                if static_index < len(static_times)
                else None
            )
            if next_static is not None and not (deviation_at < next_static - TIME_EPS):
                return
            deviation_event = core.post(
                deviation_at,
                lambda t=deviation_at: on_trigger(t, None, True),
                kind=EventKind.DEVIATION,
                label="deviation",
            )

        def on_trigger(
            clock: float, event: Optional[PoolEvent], is_deviation: bool
        ) -> None:
            nonlocal current, wasted, killed_jobs, last_clock, static_index
            nonlocal projection, dup_projection
            if not is_deviation:
                static_index += 1
            completion = max(
                [a.finish for a in truth_assign.values()]
                + [a.finish for a in projection.values()],
                default=0.0,
            )
            if clock >= completion - TIME_EPS:
                core.stop()  # the workflow actually finished before this event
                return
            last_clock = clock
            resources = pool.available_at(clock)
            if not resources:
                arm_deviation()
                return
            commit(projection, dup_projection, clock)
            state = snapshot(clock)

            removed_set = frozenset(event.removed) if event is not None else frozenset()
            wasted_delta, killed, forced = apply_departure_kills(
                workflow, current, state, removed_set
            )
            wasted += wasted_delta
            killed_jobs |= killed
            for job in sorted(killed, key=job_index.__getitem__):
                killed_assignment = truth_assign.pop(job)
                trace.record_kill(
                    job, killed_assignment.resource_id, killed_assignment.start, clock
                )
            if removed_set and truth_dups:
                # a duplicate running on a departed resource is lost
                for key, duplicate in list(truth_dups.items()):
                    if (
                        duplicate.resource_id in removed_set
                        and duplicate.finish > clock + TIME_EPS
                    ):
                        del truth_dups[key]

            effective = estimated(clock)
            synced, changed = sync_belief(current, state)
            if changed or clock in perf_times:
                current = repair_schedule(
                    workflow,
                    synced if changed else current,
                    state,
                    effective,
                    clock=clock,
                    resources=resources,
                )

            candidate = self.scheduler.reschedule(
                workflow,
                effective,
                resources,
                clock=clock,
                previous_schedule=current,
                execution_state=state,
            )
            adopt = (
                forced
                or not self.accept_only_if_better
                or candidate.makespan() < current.makespan() - self.epsilon
            )
            if event is not None:
                label = describe_pool_event(event)
            else:
                label = "deviation" if is_deviation else "perf-change"
            decisions.append(
                ReschedulingDecision(
                    time=clock,
                    event=label,
                    previous_makespan=current.makespan(),
                    candidate_makespan=candidate.makespan(),
                    adopted=adopt,
                    forced=forced,
                )
            )
            if adopt:
                current = candidate
            projection, dup_projection = project(current)
            arm_deviation()

        for trigger_time in static_times:
            trigger = triggers[trigger_time]
            core.post(
                trigger_time,
                lambda c=trigger_time, e=trigger: on_trigger(c, e, False),
                kind=EventKind.POOL_CHANGE if trigger is not None else EventKind.PERF_CHANGE,
                label=describe_pool_event(trigger) if trigger is not None else "perf-change",
            )
        arm_deviation()
        core.run()

        # drain: the remaining projection is the actual tail of the run
        for assignment in projection.values():
            truth_assign.setdefault(assignment.job_id, assignment)
        for key, assignment in dup_projection.items():
            truth_dups.setdefault(key, assignment)
        remaining = [
            a for job, a in truth_assign.items()
            if job not in finished
        ]
        remaining.sort(key=lambda a: (a.finish, a.start, job_index[a.job_id]))
        for assignment in remaining:
            finished.add(assignment.job_id)
            record_observation(assignment)
        for job in workflow.jobs:
            assignment = truth_assign[job]
            trace.record_job(
                job, assignment.resource_id, assignment.start, assignment.finish
            )
        for duplicate in sorted(
            truth_dups.values(),
            key=lambda a: (a.start, a.finish, job_index[a.job_id], a.resource_id),
        ):
            trace.record_duplicate(
                duplicate.job_id, duplicate.resource_id, duplicate.start, duplicate.finish
            )
        return AdaptiveRunResult(
            strategy=name,
            initial_schedule=initial,
            final_schedule=current,
            decisions=decisions,
            trace=trace,
            killed_jobs=len(killed_jobs),
            planned_wasted_work=wasted,
        )


def repair_schedule(
    workflow: Workflow,
    schedule: Schedule,
    state: ExecutionState,
    costs: CostModel,
    *,
    clock: float,
    resources: Sequence[str],
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
    unconditionally.

    The repaired schedule is the honest comparison baseline for the
    accept-if-better rule: without it a degradation would be invisible (the
    stale plan still *predicts* the old makespan) and the Planner would
    wrongly reject every post-degradation candidate.
    """
    available = set(resources)
    repaired = Schedule(name=schedule.name)
    finish_new: Dict[str, float] = {}
    free: Dict[str, float] = {}

    # Historical duplicates (duplication-based strategies) that began
    # executing by ``clock`` are facts: keep them so the pinned history
    # stays precedence-feasible, and block their resources while they run.
    # Future duplicates are dropped — the re-timing below prices every
    # not-started job off the primary copies, which is feasible without
    # them, and the next real replanning pass re-derives duplicates.
    for duplicate in schedule.duplicates:
        if duplicate.start > clock + TIME_EPS:
            continue
        if duplicate.resource_id not in available and duplicate.finish > clock + TIME_EPS:
            continue
        repaired.add_duplicate(duplicate)
        if duplicate.finish > clock + TIME_EPS:
            rid = duplicate.resource_id
            free[rid] = max(free.get(rid, clock), duplicate.finish)

    for job in workflow.jobs:
        if state.is_finished(job):
            assignment = Assignment(
                job,
                state.executed_on[job],
                state.actual_start[job],
                state.actual_finish[job],
            )
            repaired.add(assignment)
            finish_new[job] = assignment.finish

    for job in workflow.jobs:
        if not state.is_running(job):
            continue
        assignment = schedule.get(job)
        if assignment is None:
            continue
        rid = assignment.resource_id
        # speed frozen at dispatch: the in-flight job finishes as scheduled
        repaired.add(assignment)
        finish_new[job] = assignment.finish
        free[rid] = max(free.get(rid, clock), assignment.finish)

    for job in workflow.topological_order():
        if job in finish_new:
            continue
        assignment = schedule.get(job)
        if assignment is None:
            continue
        rid = assignment.resource_id
        if rid not in available:
            # infeasible mapping — keep the stale times; the caller adopts
            # the replacement candidate unconditionally (forced decision).
            repaired.add(assignment)
            finish_new[job] = assignment.finish
            continue
        ready = clock
        for pred in workflow.predecessors(job):
            pred_finish = finish_new.get(pred)
            if pred_finish is None:
                pred_assignment = schedule.get(pred)
                pred_finish = pred_assignment.finish if pred_assignment else clock
            if pred in state.executed_on:
                pred_rid = state.executed_on[pred]
            else:
                pred_assignment = schedule.get(pred)
                pred_rid = pred_assignment.resource_id if pred_assignment else rid
            comm = 0.0 if pred_rid == rid else costs.average_communication_cost(pred, job)
            ready = max(ready, pred_finish + comm)
        start = max(ready, free.get(rid, clock))
        finish = start + costs.computation_cost(job, rid)
        repaired.add(Assignment(job, rid, start, finish))
        finish_new[job] = finish
        free[rid] = finish
    return repaired


def _merge_triggers(
    pool_events: Sequence[PoolEvent], perf_profile
) -> tuple:
    """Merge pool events and perf-change times into one trigger map.

    ``pool.events()`` aggregates per time point already, but callers may
    pass their own event list, so same-time entries are merged instead of
    dropped.  Returns ``(triggers, perf_times)`` where ``triggers`` maps
    time to an optional :class:`PoolEvent` (``None`` marks a pure
    performance change).
    """
    triggers: Dict[float, Optional[PoolEvent]] = {}
    for event in pool_events:
        existing = triggers.get(event.time)
        if existing is None:
            triggers[event.time] = event
        else:
            triggers[event.time] = PoolEvent(
                time=event.time,
                added=tuple(sorted({*existing.added, *event.added})),
                removed=tuple(sorted({*existing.removed, *event.removed})),
            )
    perf_times = set()
    if perf_profile is not None:
        perf_times = set(perf_profile.change_times())
        for time in perf_times:
            triggers.setdefault(time, None)
    return triggers, perf_times


def project_actuals(
    workflow: Workflow,
    plan: Schedule,
    started: Dict[object, Assignment],
    actual_costs: CostModel,
    *,
    perf_profile=None,
) -> Dict[object, Assignment]:
    """Replay a plan's not-yet-started executions under ground-truth durations.

    Bookings are treated as *reservations*: an execution starts at its
    booked start, pushed later if its resource is still busy (the previous
    booking overran) or its inputs have not arrived yet (a predecessor
    overran).  Its actual duration is ``actual_costs.computation_cost(job,
    rid)`` scaled by the resource's performance factor at the actual start
    (speed frozen at dispatch, matching the simulation executors).  With
    accurate actual costs the replay reproduces the plan bit for bit — the
    zero-noise differential guarantee.

    Executions are keyed by the job id for a primary copy and by the
    ``(job, resource)`` pair for a duplicate copy (duplication-based
    strategies).  ``started`` holds the ground truth of every execution
    already dispatched (running or finished); those are taken as facts.
    Returns the actual :class:`~repro.scheduling.base.Assignment` of every
    other execution in the plan, keyed the same way.

    Per-resource execution order is the plan's booking order; an execution
    only starts once every input has arrived: the predecessor's primary
    output (transfer priced by the actual model, which delegates
    communication to the estimates) or, sooner, a duplicate of the
    predecessor already executed on the same resource.  The combined
    (resource-order + precedence) relation of a feasible plan is acyclic,
    so the fixed-point pass below always terminates with every execution
    placed.
    """
    free: Dict[str, float] = {}
    for assignment in started.values():
        rid = assignment.resource_id
        if assignment.finish > free.get(rid, 0.0):
            free[rid] = assignment.finish
    queues: Dict[str, List[Assignment]] = {}
    pending = 0
    for rid in plan.resources_used():
        queue = [a for a in plan.assignments_on(rid) if a.job_id not in started]
        if queue:
            queues[rid] = queue
            pending += len(queue)
    #: duplicate bookings still to replay, by identity -> execution key
    duplicate_keys: Dict[int, tuple] = {}
    #: finish of the duplicate copies replayed so far, per (job, resource)
    local: Dict[tuple, float] = {}
    for duplicate in plan.duplicates:
        key = (duplicate.job_id, duplicate.resource_id)
        fact = started.get(key)
        if fact is not None:
            local[key] = fact.finish
            continue
        duplicate_keys[id(duplicate)] = key
        queues.setdefault(duplicate.resource_id, []).append(duplicate)
        pending += 1
    if duplicate_keys:
        for queue in queues.values():
            queue.sort(key=lambda a: (a.start, a.finish, a.job_id))
    projected: Dict[object, Assignment] = {}

    progress = True
    while pending and progress:
        progress = False
        for rid in sorted(queues):
            queue = queues[rid]
            while queue:
                booked = queue[0]
                job = booked.job_id
                preds = workflow.predecessors(job)
                resolved = True
                ready = max(booked.start, free.get(rid, 0.0))
                for pred in preds:
                    pred_actual = started.get(pred) or projected.get(pred)
                    if pred_actual is not None:
                        transfer = actual_costs.communication_cost(
                            pred, job, pred_actual.resource_id, rid
                        )
                        arrival = pred_actual.finish + transfer
                        if local:
                            local_finish = local.get((pred, rid))
                            if local_finish is not None and local_finish < arrival:
                                arrival = local_finish
                    else:
                        arrival = local.get((pred, rid)) if local else None
                        if arrival is None:
                            resolved = False
                            break
                    if arrival > ready:
                        ready = arrival
                if not resolved:
                    break
                duration = actual_costs.computation_cost(job, rid)
                if perf_profile is not None:
                    duration *= perf_profile.factor_at(rid, ready)
                actual = Assignment(job, rid, ready, ready + duration)
                key = duplicate_keys.get(id(booked)) if duplicate_keys else None
                if key is None:
                    projected[job] = actual
                else:
                    projected[key] = actual
                    local[key] = actual.finish
                free[rid] = actual.finish
                queue.pop(0)
                pending -= 1
                progress = True
    if pending:
        stalled = sorted(a.job_id for queue in queues.values() for a in queue)
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

    A name is looked up in the scheduling registry
    (:data:`repro.scheduling.registry.SCHEDULERS`); ``None`` falls back to
    ``default()``.  ``require`` names an interface the resolved object must
    provide (``"reschedule"`` for the adaptive loop, ``"map_ready_jobs"``
    for the just-in-time executor, ``"schedule"`` for plan-once execution).
    """
    if isinstance(strategy, str):
        from repro.scheduling.registry import make_scheduler

        scheduler = make_scheduler(strategy)
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
    feedback: bool = True,
    blend: float = 1.0,
    predictor_mode: str = "ratio",
    replan_on_deviation: Optional[float] = 0.1,
) -> AdaptiveRunResult:
    """AHEFT adaptive rescheduling reacting to every pool/performance change.

    ``error_model`` (or an explicit ``actual_costs`` truth model) switches
    the loop into the estimate-error regime: adopted bookings execute with
    sampled ground-truth durations, observed actuals are recorded into
    ``history`` (a fresh repository when not supplied), and — with
    ``feedback`` (default) — each replan re-estimates the cost matrix via
    the :class:`~repro.core.predictor.Predictor` before calling AHEFT,
    closing the paper's Fig. 1 loop.  ``predictor_mode`` selects the
    re-estimation semantics (``"ratio"`` learns multiplicative per-resource
    corrections — the default, exact for systematic resource bias;
    ``"absolute"`` overrides per-operation durations).
    ``replan_on_deviation`` additionally triggers a re-evaluation whenever
    an observed completion misses its booking by the given fraction of the
    booked duration (``None`` limits replanning to grid events, as in the
    analytic loop).

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
    # run is bit-identical to the analytic loop.  (Re-estimating anyway
    # would still change plans: observations aggregate per operation, which
    # differs from the per-job priors even with zero noise.)  An explicitly
    # supplied history or truth model opts back in.
    noisy_truth = explicit_truth or (error_model is not None and not error_model.is_null)
    predictor = None
    if feedback and (noisy_truth or history is not None):
        predictor = Predictor(
            history if history is not None else PerformanceHistoryRepository(),
            blend=blend,
            mode=predictor_mode,
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
