"""Frozen copy of the seed scheduling kernel (reference implementation).

The fast kernel (indexed DAG/cost caches, bisect timelines, rank reuse,
hoisted inner loops) is required to be *bit-identical* to the original seed
implementation: same assignments, same start/finish times, same makespans.
This module preserves the seed algorithms verbatim so that

* ``tests/test_scheduling_base.py`` can property-check the bisect-based
  :class:`~repro.scheduling.base.ResourceTimeline` against
  :class:`SeedResourceTimeline` on random interval sequences, and assert
  HEFT/AHEFT schedule equivalence on seeded random and application DAGs,
* ``benchmarks/bench_kernel_scaling.py`` can measure the speedup of the
  fast kernel against the exact seed code path,
* ``tests/test_dense_replay.py`` can check the index-addressed
  ``repair_schedule`` and ``project_actuals`` of :mod:`repro.core.adaptive`
  against :func:`scalar_repair_schedule` and :func:`scalar_project_actuals`,
  their name-keyed, per-pair-priced versions frozen before the dense rewrite,
* ``tests/test_busy_directory.py`` can check the shared grid's booking
  directory (:mod:`repro.scheduling.bookings`) against the walk-sort-merge
  path it replaced: :func:`seed_busy_view` (walk every admitted schedule),
  :func:`seed_foreign_timelines` (sort, merge and ``occupy`` the foreign
  and pinned spans into fresh timelines) and
  :func:`seed_predicted_saturation` (re-sort and re-merge the same spans).

Do not optimise this module — its slowness is the point.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.scheduling.base import (
    Assignment,
    ExecutionState,
    JobStatus,
    ResourceTimeline,
    Schedule,
    TIME_EPS,
)
from repro.simulation.executor import dispatch_duration
from repro.workflow.costs import CostModel
from repro.workflow.dag import Workflow

__all__ = [
    "SeedResourceTimeline",
    "seed_upward_ranks",
    "seed_heft_priority_order",
    "seed_heft_schedule",
    "seed_aheft_reschedule",
    "SeedHEFTScheduler",
    "SeedAHEFTScheduler",
    "scalar_repair_schedule",
    "scalar_project_actuals",
    "seed_busy_view",
    "seed_occupy_busy_intervals",
    "seed_foreign_timelines",
    "seed_predicted_saturation",
]


class SeedResourceTimeline:
    """The seed timeline: O(n) overlap scan + full re-sort per ``occupy``."""

    def __init__(self, resource_id: str, *, available_from: float = 0.0) -> None:
        self.resource_id = resource_id
        self.available_from = float(available_from)
        self._intervals: List[Tuple[float, float, str]] = []

    def occupy(self, start: float, finish: float, job_id: str) -> None:
        if finish < start - TIME_EPS:
            raise ValueError("finish precedes start")
        for other_start, other_finish, other_job in self._intervals:
            if start < other_finish - TIME_EPS and other_start < finish - TIME_EPS:
                raise ValueError(
                    f"interval [{start}, {finish}) of {job_id!r} overlaps "
                    f"[{other_start}, {other_finish}) of {other_job!r} on "
                    f"{self.resource_id!r}"
                )
        self._intervals.append((float(start), float(finish), job_id))
        self._intervals.sort(key=lambda item: (item[0], item[1], item[2]))

    def intervals(self) -> List[Tuple[float, float, str]]:
        return list(self._intervals)

    def ready_time(self) -> float:
        if not self._intervals:
            return self.available_from
        return max(self.available_from, max(finish for _, finish, _ in self._intervals))

    def earliest_start(
        self, ready: float, duration: float, *, insertion: bool = True
    ) -> float:
        ready = max(ready, self.available_from)
        if not insertion:
            return max(ready, self.ready_time())
        cursor = ready
        for start, finish, _ in self._intervals:
            if cursor + duration <= start + TIME_EPS:
                return cursor
            cursor = max(cursor, finish)
        return cursor


def seed_upward_ranks(
    workflow: Workflow,
    costs: CostModel,
    resources: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Seed ``rank_u``: per-job ``np.mean`` over the pool, no caching."""
    ranks: Dict[str, float] = {}
    order = workflow.topological_order()
    for job in reversed(order):
        if resources:
            w_avg = float(
                np.mean([costs.computation_cost(job, r) for r in resources])
            )
        else:
            w_avg = costs.intrinsic_average_computation_cost(job)
        succ = workflow.successors(job)
        if not succ:
            ranks[job] = w_avg
            continue
        best = 0.0
        for nxt in succ:
            c_avg = costs.average_communication_cost(job, nxt)
            candidate = c_avg + ranks[nxt]
            if candidate > best:
                best = candidate
        ranks[job] = w_avg + best
    return ranks


def seed_heft_priority_order(
    workflow: Workflow,
    costs: CostModel,
    resources: Optional[Sequence[str]] = None,
) -> List[str]:
    ranks = seed_upward_ranks(workflow, costs, resources)
    topo_index = {job: idx for idx, job in enumerate(workflow.topological_order())}
    return sorted(
        workflow.jobs,
        key=lambda job: (-ranks[job], topo_index[job], job),
    )


def seed_heft_schedule(
    workflow: Workflow,
    costs: CostModel,
    resources: Sequence[str],
    *,
    insertion: bool = True,
    resource_available_from: Optional[Mapping[str, float]] = None,
    name: str = "heft",
) -> Schedule:
    """The seed static HEFT: per-(job, resource) cost/communication calls."""
    if not resources:
        raise ValueError("cannot schedule on an empty resource set")
    workflow.validate()
    availability = resource_available_from or {}
    timelines: Dict[str, SeedResourceTimeline] = {
        rid: SeedResourceTimeline(rid, available_from=float(availability.get(rid, 0.0)))
        for rid in resources
    }
    schedule = Schedule(name=name)

    for job in seed_heft_priority_order(workflow, costs, resources):
        best: Optional[Assignment] = None
        for rid in resources:
            duration = costs.computation_cost(job, rid)
            ready = 0.0
            for pred in workflow.predecessors(job):
                pred_assignment = schedule.get(pred)
                if pred_assignment is None:
                    raise RuntimeError(
                        f"predecessor {pred!r} of {job!r} not scheduled yet; "
                        "priority order is not topologically consistent"
                    )
                transfer = costs.communication_cost(
                    pred, job, pred_assignment.resource_id, rid
                )
                ready = max(ready, pred_assignment.finish + transfer)
            start = timelines[rid].earliest_start(ready, duration, insertion=insertion)
            candidate = Assignment(job, rid, start, start + duration)
            if best is None or candidate.finish < best.finish - TIME_EPS:
                best = candidate
        assert best is not None
        timelines[best.resource_id].occupy(best.start, best.finish, job)
        schedule.add(best)
    return schedule


def _seed_scheduled_transfer_arrival(
    pred: str,
    job: str,
    candidate_resource: str,
    costs: CostModel,
    previous_schedule: Optional[Schedule],
    state: ExecutionState,
) -> Optional[float]:
    recorded = state.data_available_at(pred, candidate_resource)
    if recorded is not None:
        return recorded
    if previous_schedule is None:
        return None
    finish = state.actual_finish.get(pred)
    if finish is None:
        return None
    old = previous_schedule.get(job)
    if old is not None and old.resource_id == candidate_resource:
        transfer = costs.communication_cost(
            pred, job, state.executed_on[pred], candidate_resource
        )
        return finish + transfer
    return None


def seed_aheft_reschedule(
    workflow: Workflow,
    costs: CostModel,
    resources: Sequence[str],
    *,
    clock: float = 0.0,
    previous_schedule: Optional[Schedule] = None,
    execution_state: Optional[ExecutionState] = None,
    insertion: bool = True,
    respect_running: bool = True,
    resource_available_from: Optional[Mapping[str, float]] = None,
    name: str = "aheft",
) -> Schedule:
    """The seed AHEFT: Eq. (1)-(3) evaluated per (job, resource, pred)."""
    if not resources:
        raise ValueError("cannot schedule on an empty resource set")
    workflow.validate()
    if clock < 0:
        raise ValueError("clock must be non-negative")

    if execution_state is None:
        if previous_schedule is not None:
            execution_state = ExecutionState.from_schedule(
                previous_schedule, clock, jobs=workflow.jobs
            )
        else:
            execution_state = ExecutionState.initial(workflow.jobs)
    state = execution_state

    pinned: Dict[str, Assignment] = {}
    for job in workflow.jobs:
        status = state.job_status(job)
        if status is JobStatus.FINISHED:
            pinned[job] = Assignment(
                job,
                state.executed_on[job],
                state.actual_start[job],
                state.actual_finish[job],
            )
        elif status is JobStatus.RUNNING and respect_running:
            if previous_schedule is not None and previous_schedule.get(job) is not None:
                sft = previous_schedule.scheduled_finish_time(job)
            else:
                sft = state.actual_start[job] + costs.computation_cost(
                    job, state.executed_on[job]
                )
            pinned[job] = Assignment(
                job, state.executed_on[job], state.actual_start[job], sft
            )
    to_schedule = [job for job in workflow.jobs if job not in pinned]

    availability = resource_available_from or {}
    timelines: Dict[str, SeedResourceTimeline] = {}
    for rid in resources:
        start = max(clock, float(availability.get(rid, clock)))
        timelines[rid] = SeedResourceTimeline(rid, available_from=start)
    for assignment in pinned.values():
        timeline = timelines.get(assignment.resource_id)
        if timeline is not None and assignment.finish > timeline.available_from:
            timeline.occupy(assignment.start, assignment.finish, assignment.job_id)

    schedule = Schedule(name=name)
    schedule.extend(pinned.values())

    def fea(pred: str, job: str, rid: str) -> float:
        if state.job_status(pred) is JobStatus.FINISHED:
            executed_on = state.executed_on[pred]
            finish = state.actual_finish[pred]
            if executed_on == rid:
                return finish
            arrival = _seed_scheduled_transfer_arrival(
                pred, job, rid, costs, previous_schedule, state
            )
            if arrival is not None:
                return arrival
            comm = costs.communication_cost(pred, job, executed_on, rid)
            return clock + comm
        pred_assignment = schedule.get(pred)
        if pred_assignment is None:
            raise RuntimeError(
                f"predecessor {pred!r} of {job!r} is neither executed nor "
                "scheduled; the priority order is not topologically consistent"
            )
        if pred_assignment.resource_id == rid:
            return pred_assignment.finish
        comm = costs.communication_cost(pred, job, pred_assignment.resource_id, rid)
        return pred_assignment.finish + comm

    to_schedule_set: Set[str] = set(to_schedule)
    order = [
        job
        for job in seed_heft_priority_order(workflow, costs, resources)
        if job in to_schedule_set
    ]
    for job in order:
        best: Optional[Assignment] = None
        for rid in resources:
            duration = costs.computation_cost(job, rid)
            ready = clock
            for pred in workflow.predecessors(job):
                ready = max(ready, fea(pred, job, rid))
            start = timelines[rid].earliest_start(ready, duration, insertion=insertion)
            candidate = Assignment(job, rid, start, start + duration)
            if best is None or candidate.finish < best.finish - TIME_EPS:
                best = candidate
        assert best is not None
        timelines[best.resource_id].occupy(best.start, best.finish, job)
        schedule.add(best)
    return schedule


class SeedHEFTScheduler:
    """Seed HEFT behind the common scheduler interface (for equivalence runs)."""

    def __init__(self, *, insertion: bool = True, name: str = "HEFT") -> None:
        self.insertion = insertion
        self.name = name

    def schedule(
        self,
        workflow: Workflow,
        costs: CostModel,
        resources: Sequence[str],
        *,
        resource_available_from: Optional[Mapping[str, float]] = None,
    ) -> Schedule:
        return seed_heft_schedule(
            workflow,
            costs,
            resources,
            insertion=self.insertion,
            resource_available_from=resource_available_from,
            name=self.name,
        )


class SeedAHEFTScheduler:
    """Seed AHEFT behind the common scheduler interface (for equivalence runs)."""

    def __init__(
        self,
        *,
        insertion: bool = True,
        respect_running: bool = True,
        name: str = "AHEFT",
    ) -> None:
        self.insertion = insertion
        self.respect_running = respect_running
        self.name = name

    def schedule(
        self,
        workflow: Workflow,
        costs: CostModel,
        resources: Sequence[str],
        *,
        resource_available_from: Optional[Mapping[str, float]] = None,
    ) -> Schedule:
        return seed_aheft_reschedule(
            workflow,
            costs,
            resources,
            clock=0.0,
            previous_schedule=None,
            execution_state=None,
            insertion=self.insertion,
            respect_running=self.respect_running,
            resource_available_from=resource_available_from,
            name=self.name,
        )

    def reschedule(
        self,
        workflow: Workflow,
        costs: CostModel,
        resources: Sequence[str],
        *,
        clock: float,
        previous_schedule: Schedule,
        execution_state: Optional[ExecutionState] = None,
        resource_available_from: Optional[Mapping[str, float]] = None,
    ) -> Schedule:
        return seed_aheft_reschedule(
            workflow,
            costs,
            resources,
            clock=clock,
            previous_schedule=previous_schedule,
            execution_state=execution_state,
            insertion=self.insertion,
            respect_running=self.respect_running,
            resource_available_from=resource_available_from,
            name=self.name,
        )


def scalar_repair_schedule(
    workflow: Workflow,
    schedule: Schedule,
    state: ExecutionState,
    costs: CostModel,
    *,
    clock: float,
    resources: Sequence[str],
) -> Schedule:
    """Frozen scalar ``repair_schedule``: name-keyed lookups, per-pair pricing.

    Re-estimate a plan's remaining finish times under new perf factors.

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


#: replay queue order: booked start, booked finish, workflow order, job id
_queue_order = itemgetter(0, 1, 2, 3)


def scalar_project_actuals(
    workflows: Sequence[tuple],
    *,
    perf_profile=None,
) -> List[Dict[object, Assignment]]:
    """Frozen scalar ``project_actuals``: name-keyed lookups, per-pair pricing.

    Replay plans' not-yet-started executions under ground-truth durations.

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
    """
    free: Dict[str, float] = {}
    #: per resource: (start, finish, workflow index, job, duplicate key)
    queues: Dict[str, list] = {}
    #: per workflow: finish of the duplicate copies replayed so far
    local_copies: List[Dict[tuple, float]] = []
    for index, (_, plan, started, _) in enumerate(workflows):
        for assignment in started.values():
            rid = assignment.resource_id
            if assignment.finish > free.get(rid, 0.0):
                free[rid] = assignment.finish
        for a in plan:
            if a.job_id not in started:
                queues.setdefault(a.resource_id, []).append(
                    (a.start, a.finish, index, a.job_id, None)
                )
        local: Dict[tuple, float] = {}
        for d in plan.duplicates:
            key = (d.job_id, d.resource_id)
            fact = started.get(key)
            if fact is not None:
                local[key] = fact.finish
            else:
                queues.setdefault(d.resource_id, []).append(
                    (d.start, d.finish, index, d.job_id, key)
                )
        local_copies.append(local)
    pending = 0
    for queue in queues.values():
        queue.sort(key=_queue_order)
        pending += len(queue)
    heads = dict.fromkeys(queues, 0)
    projected: List[Dict[object, Assignment]] = [{} for _ in workflows]

    progress = True
    while pending and progress:
        progress = False
        for rid in sorted(queues):
            queue = queues[rid]
            head = heads[rid]
            while head < len(queue):
                start, _, index, job, key = queue[head]
                workflow, _, started, truth = workflows[index]
                done = projected[index]
                local = local_copies[index]
                resolved = True
                ready = max(start, free.get(rid, 0.0))
                for pred in workflow.predecessors(job):
                    pred_actual = started.get(pred) or done.get(pred)
                    if pred_actual is not None:
                        transfer = truth.communication_cost(
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
                duration = dispatch_duration(truth, job, rid, ready, perf_profile)
                actual = Assignment(job, rid, ready, ready + duration)
                if key is None:
                    done[job] = actual
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


# ----------------------------------------------------------------------
# the shared-grid busy view before the booking directory
# ----------------------------------------------------------------------
def seed_busy_view(
    planner, exclude_key: Optional[str], clock: float
) -> Dict[str, List[Tuple[float, float]]]:
    """``MultiTenantPlanner.busy_view`` as a walk over every admitted schedule.

    Same signature as the method, so a test can patch it in.
    """
    busy: Dict[str, List[Tuple[float, float]]] = {}
    for key, wf in planner._active.items():
        if key == exclude_key:
            continue
        if wf.finished_by(clock):
            continue
        for assignment in wf.schedule.all_assignments():
            if assignment.finish - TIME_EPS <= clock:
                continue
            busy.setdefault(assignment.resource_id, []).append(
                (assignment.start, assignment.finish)
            )
    return busy


def seed_occupy_busy_intervals(
    timelines: Mapping[str, ResourceTimeline], busy
) -> None:
    """Sort, overlap-merge and ``occupy`` foreign spans, per resource."""
    if not busy:
        return
    for rid, spans in busy.items():
        timeline = timelines.get(rid)
        if timeline is None:
            continue
        relevant = sorted(
            (float(span[0]), float(span[1]))
            for span in spans
            if span[1] > timeline.available_from and span[1] - span[0] > TIME_EPS
        )
        merged: List[List[float]] = []
        for start, finish in relevant:
            if merged and start < merged[-1][1] - TIME_EPS:
                merged[-1][1] = max(merged[-1][1], finish)
            else:
                merged.append([start, finish])
        for index, (start, finish) in enumerate(merged):
            timeline.occupy(start, finish, f"<busy:{index}>")


def seed_foreign_timelines(busy, available_from, pinned) -> Dict[str, ResourceTimeline]:
    """A planning frame's shared-grid timelines, booked span by span.

    Same signature as :func:`repro.scheduling.bookings.foreign_timelines`.
    """
    timelines = {
        rid: ResourceTimeline(rid, available_from=start)
        for rid, start in available_from.items()
    }
    combined: Dict[str, List[tuple]] = {rid: list(spans) for rid, spans in busy.items()}
    for assignment in pinned:
        combined.setdefault(assignment.resource_id, []).append(
            (assignment.start, assignment.finish)
        )
    seed_occupy_busy_intervals(timelines, combined)
    return timelines


def _seed_merge_spans(spans) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, finish in sorted(spans):
        if merged and start <= merged[-1][1] + TIME_EPS:
            last_start, last_finish = merged[-1]
            merged[-1] = (last_start, max(last_finish, finish))
        else:
            merged.append((start, finish))
    return merged


def seed_predicted_saturation(busy, resource_count: int, clock: float, window: float) -> float:
    """Admission's saturation: touch-merge each resource's spans, then clip."""
    if resource_count <= 0 or window <= TIME_EPS:
        return 0.0
    horizon = clock + window
    booked = 0.0
    for spans in busy.values():
        for start, finish in _seed_merge_spans(spans):
            booked += max(0.0, min(finish, horizon) - max(start, clock))
    return min(1.0, booked / (resource_count * window))
