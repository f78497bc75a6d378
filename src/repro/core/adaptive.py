"""The generic adaptive rescheduling loop (paper Fig. 2) and strategy runners.

:class:`AdaptiveReschedulingLoop` is the paper's algorithm: starting from an
initial static schedule ``S0``, every event of interest triggers a
re-estimation and a candidate schedule ``S1`` for the unfinished part of the
DAG; ``S1`` replaces ``S0`` only if it is an initial schedule or its
predicted makespan is smaller (Fig. 2 lines 7–9).

The loop is one Planner/Executor cycle (Fig. 1): adopted bookings are
replayed against a ground-truth cost model (:func:`project_actuals`), the
observed facts feed the optional predictor, and completions that miss their
booking can trigger replanning.  Under accurate estimates — no truth model
and no predictor — it takes an exact case inside that same loop: the plan
is its own future, so the replay, the belief sync and the deviation scan
are skipped.  Every adaptive run, exact or not, carries an
:class:`~repro.simulation.trace.ExecutionTrace`.

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
from typing import Dict, List, Optional, Sequence

from repro import registry
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
from repro.simulation.executor import (
    JustInTimeExecutor,
    StaticScheduleExecutor,
    dispatch_duration,
    record_observation,
)
from repro.simulation.trace import ExecutionTrace
from repro.workflow.costs import CostModel, ErrorModel, PerturbedCostModel
from repro.workflow.dag import Workflow

__all__ = [
    "ReschedulingDecision",
    "AdaptiveRunResult",
    "AdaptiveReschedulingLoop",
    "apply_departure_kills",
    "decide_adoption",
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


def decide_adoption(
    clock: float,
    event: Optional[PoolEvent],
    current: Schedule,
    candidate: Schedule,
    *,
    forced: bool,
    accept_only_if_better: bool,
    deviation: bool = False,
) -> ReschedulingDecision:
    """The accept rule of paper Fig. 2 lines 7–9, as a logged decision.

    The candidate replaces ``current`` when the old plan is infeasible
    (``forced``), when the rule is switched off (``accept_only_if_better``
    false, the always-adopt ablation), or when its predicted makespan is
    shorter by more than ``TIME_EPS``.  The decision is labelled with the
    pool event, or ``"deviation"``/``"perf-change"`` for the monitor's and
    the performance profile's triggers.  Shared by
    :class:`AdaptiveReschedulingLoop` and the multi-tenant planner.
    """
    if event is not None:
        label = describe_pool_event(event)
    else:
        label = "deviation" if deviation else "perf-change"
    previous_makespan = current.makespan()
    candidate_makespan = candidate.makespan()
    return ReschedulingDecision(
        time=clock,
        event=label,
        previous_makespan=previous_makespan,
        candidate_makespan=candidate_makespan,
        adopted=(
            forced
            or not accept_only_if_better
            or candidate_makespan < previous_makespan - TIME_EPS
        ),
        forced=forced,
    )


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
        events: Optional[Sequence[PoolEvent]] = None,
        strategy_name: Optional[str] = None,
        perf_profile=None,
        actual_costs: Optional[CostModel] = None,
        predictor: Optional[Predictor] = None,
        observe: bool = True,
        replan_on_deviation: Optional[float] = 0.1,
    ) -> AdaptiveRunResult:
        """Plan, then react to every event until the workflow finishes.

        This is the paper's Fig. 1 Planner/Executor cycle.  The Planner
        plans on estimates (optionally re-estimated by the ``predictor``
        from accumulated history), while the simulated grid executes the
        adopted bookings with the ground-truth durations of
        ``actual_costs`` (typically a sampled
        :class:`~repro.workflow.costs.PerturbedCostModel`; the estimates
        themselves when omitted).  Bookings are *reservations*: a job never
        starts before its booked start, and deviations push it (and its
        successors, and everything queued behind it on the resource) later.

        At every trigger (pool change or performance change) the loop:

        1. advances the ground truth to the trigger time, committing actual
           starts/finishes (the Performance Monitor's report);
        2. records each newly finished job's observed duration in the
           predictor's history repository (Fig. 1: Scheduler → Performance
           History Repository);
        3. applies departure kills against the *actual* execution state:
           jobs running on a departing resource are killed (their partial
           execution counted as wasted work) and return to the unscheduled
           set; if any unfinished work was mapped to a departed resource the
           previous plan is *infeasible* and the candidate is adopted
           regardless of the accept-if-better rule (``forced`` decisions);
        4. re-estimates the cost matrix via the predictor (history-blended
           prior) and the performance profile;
        5. syncs the belief plan with the observed facts and, when anything
           deviated or ``perf_profile`` marks a factor change at the trigger
           time, repairs its remaining timings under the re-estimated model
           (see :func:`repair_schedule`) so the accept rule has an honest
           baseline;
        6. asks the scheduler for a candidate and applies the accept rule
           of Fig. 2 lines 7–9 (see :func:`decide_adoption`).

        Beyond the grid events, ``replan_on_deviation`` arms the monitor's
        own trigger: when a job's observed completion deviates from its
        booked one by more than the given fraction of its booked duration,
        the Planner re-evaluates at that completion instant (an extra
        decision with event label ``"deviation"``).  This is how the
        adaptive strategy *absorbs* estimate error between grid events —
        without it, accumulated delays would just push the reservation
        timeline back.  Zero noise produces zero deviations.  ``None``
        disables it.

        With neither ``actual_costs`` nor a ``predictor`` the estimates are
        the truth (the paper's §4.1 accurate-estimation assumption) and the
        plan is its own future.  The loop then takes its *exact case*: the
        projection is the plan's own un-started bookings (no
        :func:`project_actuals` replay), the belief never deviates from the
        observed facts, and no deviation trigger can fire.  Each shortcut
        is what the full replay computes when the truth equals the
        estimates; ``tests/test_differential.py::TestZeroNoiseDifferential``
        pins the two against each other.

        The returned result carries an :class:`ExecutionTrace` of the
        actual execution, so ``result.makespan`` is the achieved (not the
        predicted) makespan.
        """
        initial_resources = pool.available_at(0.0)
        if not initial_resources:
            raise ValueError("no resources available at time 0")
        truth = actual_costs if actual_costs is not None else costs
        history = predictor.history if predictor is not None else None
        #: accurate estimates: every execution happens exactly as booked
        exact = actual_costs is None and predictor is None

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
        name = strategy_name or getattr(self.scheduler, "name", "adaptive")
        trace = ExecutionTrace(workflow_name=workflow.name, strategy=name)

        job_index = {job: i for i, job in enumerate(workflow.jobs)}
        #: ground truth of every job that has started (running or finished)
        truth_assign: Dict[str, Assignment] = {}
        #: ground truth of every started duplicate copy, per (job, resource)
        truth_dups: Dict[tuple, Assignment] = {}
        finished: set = set()
        recorded: set = set()

        def report_finished(assignment: Assignment) -> None:
            """Report a completed execution to the history repository once."""
            if history is None or not observe or assignment.job_id in recorded:
                return
            record_observation(
                history,
                workflow,
                costs,
                assignment.job_id,
                assignment.resource_id,
                assignment.start,
                assignment.finish,
                perf_profile,
            )
            recorded.add(assignment.job_id)

        def project(plan: Schedule) -> tuple:
            """The plan's actual future: ``(primaries, duplicates)``."""
            if exact:
                return (
                    {a.job_id: a for a in plan if a.job_id not in truth_assign},
                    {
                        (d.job_id, d.resource_id): d
                        for d in plan.duplicates
                        if (d.job_id, d.resource_id) not in truth_dups
                    },
                )
            started = {**truth_assign, **truth_dups} if truth_dups else truth_assign
            (projected,) = project_actuals(
                [(workflow, plan, started, truth)], perf_profile=perf_profile
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
                report_finished(assignment)

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

        def sync_belief(
            plan: Schedule, state: ExecutionState, effective: CostModel
        ) -> tuple:
            """Substitute observed facts into the plan; never re-time futures.

            Returns ``(synced, changed)`` where ``changed`` flags any
            deviation between the plan and the observed actuals.  A running
            job keeps its *booked duration* shifted to its actual start
            (speed frozen at dispatch, estimate unchanged), floored at the
            clock — the planner knows an overdue job cannot finish in the
            past.  A running job without a booking on its resource is priced
            by ``effective``, the trigger's estimate.
            """
            if exact:
                return plan, False
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
                        belief_finish = start + effective.computation_cost(job, rid)
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
            if exact or replan_on_deviation is None:
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
            nonlocal current, last_clock, static_index
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
            _, killed, forced = apply_departure_kills(
                workflow, current, state, removed_set
            )
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
            synced, changed = sync_belief(current, state, effective)
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
            decision = decide_adoption(
                clock,
                event,
                current,
                candidate,
                forced=forced,
                accept_only_if_better=self.accept_only_if_better,
                deviation=is_deviation,
            )
            decisions.append(decision)
            if decision.adopted:
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
            report_finished(assignment)
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
            killed_jobs=len({kill.job_id for kill in trace.kills}),
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
        finish[i] = start + duration
        repaired.add(Assignment(jobs[i], rid, start, finish[i]))
        free[rid] = finish[i]
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


#: replay queue order: booked start, booked finish, workflow order, job id
_queue_order = itemgetter(0, 1, 2, 3)


def project_actuals(
    workflows: Sequence[tuple],
    *,
    perf_profile=None,
) -> List[Dict[object, Assignment]]:
    """Replay plans' not-yet-started executions under ground-truth durations.

    ``workflows`` is a sequence of ``(workflow, plan, started, truth)``
    entries, in tie-break order, whose plans share the resources: one
    workflow for the adaptive loop, every tenant for the shared grid.
    Bookings are treated as *reservations*: an execution starts at its
    booked start, pushed later if its resource is still busy (the previous
    booking — possibly another workflow's — overran) or its inputs have
    not arrived yet (a predecessor overran).  Its actual duration is
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
            if assignment.finish > free.get(rid, 0.0):
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
                ready = max(start, free.get(rid, 0.0))
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
