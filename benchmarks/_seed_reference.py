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
  :func:`seed_predicted_saturation` (re-sort and re-merge the same spans),
* ``tests/test_incremental_loop.py`` can check the closed loop's
  incremental Performance Monitor against the version that rebuilt its
  state at every event: :class:`SeedActualExecution` (rescan the
  projection on ``advance``, walk every job in ``sync_belief`` and
  ``next_deviation``), :func:`seed_project_actuals` (build, sort and walk
  every queue on every call), :func:`seed_replay`/:func:`seed_next_deviation`/
  :func:`seed_served_by_tenant` (the planner's replay without a kept state
  or a skip, its deviation scan and its served-time fold over every
  admitted workflow) and the state builders of :func:`seed_repair_schedule`
  and :func:`seed_frame_pins` (``job_status`` per job, a new
  ``Assignment`` per finished job),
* ``benchmarks/bench_kernel_scaling.py`` and ``tests/test_flow_scheduler.py``
  can check the min-cost-flow scheduler's equivalence-class graph against
  :func:`seed_solve_through_classes`, the version that gave every task of
  a wave its own node and three arcs,
* ``benchmarks/bench_kernel_scaling.py`` and ``tests/test_overload.py``
  can check admission control against :func:`seed_evaluate`, the eager
  offer that made both tentative plans (:func:`seed_plan_arrival`: around
  the other workflows' bookings, then busy-free) before reading either
  gate,
* ``benchmarks/bench_kernel_scaling.py`` and ``tests/test_generators.py``
  can check the bulk case build against the scalar one it replaced:
  :func:`seed_generate_random_dag` (one ``add_edge`` per drawn edge, the
  duplicate check through ``Workflow.successors``),
  :func:`seed_draw_base_costs` and :func:`seed_assign_edge_data` (one
  ``spawn_rng`` stream per draw, one ``set_data`` per edge) and
  :func:`seed_generate_random_case`, which prices the first through the
  other two,
* ``benchmarks/bench_kernel_scaling.py`` and ``tests/test_multi_tenant.py``
  can check the batched arrival-stream build against :func:`seed_arrivals`,
  the per-arrival one it replaced (a ``spawn_rng`` stream for each
  arrival's kind and one for its case seed, then its kind's one-case
  generator).

Do not optimise this module — its slowness is the point.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.multi_tenant import PlannedArrival
from repro.generators.blast import generate_blast_case
from repro.generators.costs import WorkflowCase
from repro.generators.montage import generate_montage_case
from repro.generators.random_dag import RandomDAGParameters, _level_sizes, generate_random_case
from repro.generators.wien2k import generate_wien2k_case
from repro.scheduling.base import (
    Assignment,
    ExecutionState,
    JobStatus,
    ResourceTimeline,
    Schedule,
    TIME_EPS,
)
from repro.scheduling.bookings import as_busy_view
from repro.scheduling.flow.graph import _scaled
from repro.scheduling.flow.solver import FlowNetwork
from repro.simulation.executor import dispatch_duration, record_observation
from repro.utils.rng import spawn_rng
from repro.workflow.costs import CostModel, HeterogeneousCostModel
from repro.workflow.dag import Workflow
from repro.workload.streams import TenantSpec, WorkflowArrival, WorkloadStream

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
    "SeedActualExecution",
    "seed_repair_schedule",
    "seed_project_actuals",
    "seed_frame_pins",
    "seed_replay",
    "seed_next_deviation",
    "seed_served_by_tenant",
    "seed_solve_through_classes",
    "seed_plan_arrival",
    "seed_evaluate",
    "seed_generate_random_dag",
    "seed_draw_base_costs",
    "seed_assign_edge_data",
    "seed_generate_random_case",
    "seed_arrivals",
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


# ----------------------------------------------------------------------
# the closed loop's Performance Monitor before it was made incremental
# ----------------------------------------------------------------------
class SeedActualExecution:
    """Frozen ``ActualExecution`` (the monitor before its dense facts):
    ``advance`` rescans the projection, ``sync_belief`` walks every job
    through ``job_status``, ``next_deviation`` walks every started and
    projected job.

    The ground truth of one workflow's adopted plans in a noisy run.

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

    def state(self, clock: float) -> ExecutionState:
        """The step's state: the facts read like an accurate plan."""
        return ExecutionState.from_schedule(self.started, clock, jobs=self.workflow.jobs)

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


def seed_repair_schedule(
    workflow: Workflow,
    schedule: Schedule,
    state: ExecutionState,
    costs: CostModel,
    *,
    clock: float,
    resources: Sequence[str],
    busy=None,
) -> Schedule:
    """Frozen ``repair_schedule`` before the dense fact view: its state
    builder asks ``job_status`` per job and builds a new ``Assignment`` for
    every finished job.

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


def seed_project_actuals(
    workflows: Sequence[tuple],
    *,
    perf_profile=None,
    clock: float = 0.0,
) -> List[Dict[object, Assignment]]:
    """Frozen ``project_actuals`` before the incremental replay: every call
    builds and sorts every queue and walks them to a fixed point, pricing
    each execution through ``dispatch_duration``.

    Replay plans' not-yet-started executions under ground-truth durations.

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


def seed_frame_pins(
    workflow: Workflow,
    costs: CostModel,
    state: ExecutionState,
    previous_schedule: Optional[Schedule],
) -> Tuple[Dict[str, Assignment], List[str]]:
    """Frozen pinning of ``PartialScheduleFrame.__init__``: ``(pinned,
    to_schedule)`` read job by job through ``job_status``, with a new
    ``Assignment`` per finished job."""
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
        elif status is JobStatus.RUNNING:
            if previous_schedule is not None and previous_schedule.get(job) is not None:
                sft = previous_schedule.scheduled_finish_time(job)
            else:
                sft = state.actual_start[job] + costs.computation_cost(
                    job, state.executed_on[job]
                )
            pinned[job] = Assignment(job, state.executed_on[job], state.actual_start[job], sft)
    return pinned, [j for j in workflow.jobs if j not in pinned]


def seed_replay(planner, clock: float) -> None:
    """Frozen ``MultiTenantPlanner.replay``: one full
    :func:`seed_project_actuals` pass at every event, nothing kept."""
    noisy = sorted(
        (wf for wf in planner._unfinished.values() if wf.actual is not None),
        key=lambda wf: wf.seq,
    )
    if noisy:
        projections = seed_project_actuals(
            [(wf.workflow, wf.schedule, wf.actual.facts(), wf.actual.truth) for wf in noisy],
            perf_profile=planner.perf_profile,
            clock=clock,
        )
        for wf, projected in zip(noisy, projections):
            wf.actual.track(projected)


def seed_deviation_scan(actual, plan: Schedule, after: float) -> Optional[float]:
    """Frozen ``ActualExecution.next_deviation``: walk every started and
    projected job of one monitor."""
    return SeedActualExecution.next_deviation(actual, plan, after)


def seed_next_deviation(planner, after: float):
    """Frozen ``MultiTenantPlanner.next_deviation``: every unfinished
    workflow's monitor walked in full."""
    found = [
        (seed_deviation_scan(wf.actual, wf.schedule, after), wf)
        for wf in planner._unfinished.values()
        if wf.actual is not None
    ]
    found = [(at, wf) for at, wf in found if at is not None]
    if not found:
        return None
    first = min(at for at, _ in found)
    return first, [wf for at, wf in found if at <= first + TIME_EPS]


def seed_served_by_tenant(planner, clock: float) -> Dict[str, float]:
    """Frozen ``MultiTenantPlanner._served_by_tenant``: the fold over every
    admitted workflow's assignments at every call."""
    served: Dict[str, float] = {}
    for wf in planner._active.values():
        served[wf.tenant] = served.get(wf.tenant, 0.0) + wf.consumed_time(clock)
    return served


# ----------------------------------------------------------------------
# the flow scheduler's equivalence-class graph, one node per task
# ----------------------------------------------------------------------
def seed_solve_through_classes(tasks, resources, assignment_cost, deferral_cost):
    """Frozen ``flow/graph.py::_solve_through_classes``: every ready task
    of the wave is its own node, with an arc from the source and one each
    to the class and the ``wait`` node."""
    probe = tasks[0]
    prices = [_scaled(assignment_cost(probe, rid)) for rid in resources]
    deferral = _scaled(deferral_cost(probe))
    tasks = tasks[: len(resources)]
    task_count = len(tasks)
    source, sink, aggregator, task_class, wait = 0, 1, 2, 3, 4
    task_base = 5
    resource_base = task_base + task_count
    network = FlowNetwork(resource_base + len(resources))

    class_arcs = []
    for i in range(task_count):
        network.add_arc(source, task_base + i, 1, 0)
        class_arcs.append(network.add_arc(task_base + i, task_class, 1, 0))
        network.add_arc(task_base + i, wait, 1, 0)
    resource_arcs = [
        network.add_arc(task_class, resource_base + r, 1, price)
        for r, price in enumerate(prices)
    ]
    network.add_arc(wait, aggregator, task_count, deferral)
    for r in range(len(resources)):
        network.add_arc(resource_base + r, sink, 1, 0)
    network.add_arc(aggregator, sink, task_count, 0)

    flow, _ = network.min_cost_max_flow(source, sink)
    assert flow == task_count, "aggregator arc keeps the program feasible"
    placed = [task for task, arc in zip(tasks, class_arcs) if network.flow_on(arc) > 0]
    used = sorted(
        (prices[r], r) for r, arc in enumerate(resource_arcs) if network.flow_on(arc) > 0
    )
    assert len(placed) == len(used), "every class unit leaves through one resource"
    return {task: resources[r] for task, (_, r) in zip(placed, used)}


# ----------------------------------------------------------------------
# admission control, both tentative plans made on every offer
# ----------------------------------------------------------------------
def seed_plan_arrival(planner, arrival, clock: float) -> PlannedArrival:
    """Frozen ``MultiTenantPlanner.plan_arrival``: the plan around the
    other workflows' bookings first, then (when there are any) the
    busy-free dedicated plan."""
    resources = planner.pool.available_at(clock)
    if not resources:
        raise ValueError(f"no resources available at arrival time {clock}")
    workflow = arrival.case.workflow
    effective = arrival.case.costs
    if planner.perf_profile is not None:
        effective = planner.perf_profile.scaled_costs(effective, clock)
    scheduler = planner.scheduler_factory()
    bind = getattr(scheduler, "bind_tenant_context", None)
    if bind is not None:
        weight = planner.credit.weight(arrival.tenant) if planner.credit is not None else 1.0
        scheduler = bind(credit_weight=weight)
    busy = planner.busy_view(None, clock)
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


def seed_evaluate(controller, planner, arrival, clock: float, *, can_defer: bool = True):
    """Frozen ``AdmissionController.evaluate``: both plans of
    :func:`seed_plan_arrival`, then saturation and stretch read together."""
    config = controller.config
    entry = controller._deferrals.get(arrival.key)
    if entry is not None and entry[0] != arrival.time:
        del controller._deferrals[arrival.key]
        entry = None
    prior = entry[1] if entry is not None else 0
    resources = planner.pool.available_at(clock)
    if not resources:
        action = controller._throttle_action(arrival, prior, can_defer)
        controller._record(arrival, clock, action, 1.0, float("inf"), prior)
        return action, None
    planned = seed_plan_arrival(planner, arrival, clock)
    window = max(planned.dedicated_span, config.min_window)
    saturation = as_busy_view(planned.busy).saturation(len(resources), clock, window)
    predicted_stretch = (planned.schedule.makespan() - arrival.time) / max(
        planned.dedicated_span, TIME_EPS
    )
    overloaded = (
        saturation > config.saturation_threshold
        or predicted_stretch > config.stretch_limit
    )
    if not overloaded:
        action = "admit"
        controller._deferrals.pop(arrival.key, None)
    else:
        action = controller._throttle_action(arrival, prior, can_defer)
    controller._record(arrival, clock, action, saturation, predicted_stretch, prior)
    return action, planned


# ----------------------------------------------------------------------
# scalar case build (before the bulk one)
# ----------------------------------------------------------------------


def seed_generate_random_dag(
    params: RandomDAGParameters, *, seed: int = 0, name: Optional[str] = None
) -> Workflow:
    """Frozen ``generate_random_dag``: one ``add_edge`` per drawn edge."""
    rng = spawn_rng(seed, "random-dag", params.v, params.out_degree, params.alpha)
    workflow = Workflow(name or f"random-v{params.v}")
    sizes = _level_sizes(params.v, params.alpha, rng)
    levels: List[List[str]] = []
    counter = 0
    for level_index, size in enumerate(sizes):
        level_jobs = []
        for _ in range(size):
            counter += 1
            job_id = f"n{counter}"
            workflow.add_job(job_id, operation=f"op{level_index % 7}")
            level_jobs.append(job_id)
        levels.append(level_jobs)
    max_out = max(1, int(round(params.out_degree * params.v)))
    out_count: Dict[str, int] = {job: 0 for job in workflow.jobs}
    for level_index in range(1, len(levels)):
        previous = levels[level_index - 1]
        candidates = [p for p in previous if out_count[p] < max_out]
        for job in levels[level_index]:
            pick_from = candidates or previous
            pred = pick_from[int(rng.integers(0, len(pick_from)))]
            workflow.add_edge(pred, job, data=0.0)
            out_count[pred] += 1
            if candidates and out_count[pred] == max_out:
                candidates.remove(pred)
    ordered = [job for level_jobs in levels for job in level_jobs]
    later_start = 0
    for level_jobs in levels[:-1]:
        later_start += len(level_jobs)
        num_later = len(ordered) - later_start
        for job in level_jobs:
            budget = max_out - out_count[job]
            if budget <= 0 or not num_later:
                continue
            extra = int(rng.integers(0, budget + 1))
            if extra == 0:
                continue
            targets = rng.choice(num_later, size=min(extra, num_later), replace=False)
            for target_index in np.atleast_1d(targets):
                target = ordered[later_start + int(target_index)]
                if target in workflow.successors(job):
                    continue
                workflow.add_edge(job, target, data=0.0)
                out_count[job] += 1
    last_level = set(levels[-1])
    for level_index, level_jobs in enumerate(levels[:-1]):
        next_level = levels[level_index + 1]
        for job in level_jobs:
            if job in last_level or workflow.successors(job):
                continue
            succ = next_level[int(rng.integers(0, len(next_level)))]
            if succ not in workflow.successors(job):
                workflow.add_edge(job, succ, data=0.0)
                out_count[job] += 1
    workflow.validate()
    return workflow


def seed_draw_base_costs(
    workflow: Workflow,
    *,
    omega_dag: float,
    seed: int,
    per_operation: bool = False,
    minimum: float = 1.0,
) -> Dict[str, float]:
    """Frozen ``draw_base_costs``: one ``spawn_rng`` stream per draw."""
    base: Dict[str, float] = {}
    if per_operation:
        per_op: Dict[str, float] = {}
        for operation in workflow.operations():
            rng = spawn_rng(seed, "op-cost", operation)
            per_op[operation] = max(minimum, float(rng.uniform(0.0, 2.0 * omega_dag)))
        for job in workflow.jobs:
            base[job] = per_op[workflow.job(job).operation]
    else:
        for job in workflow.jobs:
            rng = spawn_rng(seed, "job-cost", job)
            base[job] = max(minimum, float(rng.uniform(0.0, 2.0 * omega_dag)))
    return base


def seed_assign_edge_data(
    workflow: Workflow,
    *,
    ccr: float,
    omega_dag: float,
    seed: int,
    bandwidth: float = 1.0,
    per_operation: bool = False,
) -> None:
    """Frozen ``assign_edge_data``: one stream and one ``set_data`` per edge."""
    mean_data = ccr * omega_dag * bandwidth
    if per_operation:
        pair_data: Dict[tuple, float] = {}
        for src, dst, _ in workflow.edges():
            pair = (workflow.job(src).operation, workflow.job(dst).operation)
            if pair not in pair_data:
                rng = spawn_rng(seed, "op-data", *pair)
                pair_data[pair] = float(rng.uniform(0.0, 2.0 * mean_data))
            workflow.set_data(src, dst, pair_data[pair])
    else:
        for src, dst, _ in workflow.edges():
            rng = spawn_rng(seed, "edge-data", src, dst)
            workflow.set_data(src, dst, float(rng.uniform(0.0, 2.0 * mean_data)))


def seed_generate_random_case(
    params: RandomDAGParameters, *, seed: int = 0, instance: int = 0
) -> WorkflowCase:
    """Frozen ``generate_random_case``: the scalar DAG, priced scalar."""
    case_seed = int(spawn_rng(seed, "case", params.v, params.out_degree, params.ccr,
                              params.beta, instance).integers(0, 2**62))
    workflow = seed_generate_random_dag(params, seed=case_seed)
    base = seed_draw_base_costs(workflow, omega_dag=params.omega_dag, seed=case_seed)
    seed_assign_edge_data(
        workflow, ccr=params.ccr, omega_dag=params.omega_dag, seed=case_seed
    )
    costs = HeterogeneousCostModel(workflow, base, beta=params.beta, seed=case_seed)
    return WorkflowCase(workflow=workflow, costs=costs)


def _seed_draw_kind(spec: TenantSpec, index: int, *, seed: int) -> str:
    """Frozen ``TenantSpec.draw_kind``: one ``Generator.choice`` per arrival."""
    kinds = [kind for kind, _ in spec.mix]
    weights = np.asarray([share for _, share in spec.mix], dtype=float)
    weights = weights / weights.sum()
    rng = spawn_rng(seed, "mix", spec.name, index)
    return kinds[int(rng.choice(len(kinds), p=weights))]


def _seed_build_case(spec: TenantSpec, kind: str, index: int, *, seed: int) -> WorkflowCase:
    """Frozen ``TenantSpec.build_case``: a scalar case seed, then the kind's
    one-case generator."""
    case_seed = int(spawn_rng(seed, "case", spec.name, index, kind).integers(0, 2**62))
    if kind == "random":
        params = RandomDAGParameters(
            v=spec.v,
            out_degree=spec.out_degree,
            ccr=spec.ccr,
            beta=spec.beta,
            omega_dag=spec.omega_dag,
        )
        return generate_random_case(params, seed=case_seed, instance=index)
    generator = {
        "blast": generate_blast_case,
        "wien2k": generate_wien2k_case,
        "montage": generate_montage_case,
    }[kind]
    return generator(
        spec.parallelism,
        ccr=spec.ccr,
        beta=spec.beta,
        omega_dag=spec.omega_dag,
        seed=case_seed,
    )


def seed_arrivals(stream: WorkloadStream) -> List[WorkflowArrival]:
    """Frozen ``WorkloadStream.arrivals``: every arrival drawn and built on
    its own, sorted by (time, tenant, index)."""
    merged: List[WorkflowArrival] = []
    for spec in stream.tenants:
        times = spec.arrival_times(seed=stream.seed, horizon=stream.horizon)
        for index, time in enumerate(times):
            kind = _seed_draw_kind(spec, index, seed=stream.seed)
            case = _seed_build_case(spec, kind, index, seed=stream.seed)
            merged.append(
                WorkflowArrival(
                    tenant=spec.name,
                    index=index,
                    time=time,
                    kind=kind,
                    case=case,
                    deadline_factor=spec.deadline_factor,
                    slo_stretch=spec.slo_stretch,
                )
            )
    merged.sort(key=lambda a: (a.time, a.tenant, a.index))
    return [
        WorkflowArrival(
            tenant=a.tenant,
            index=a.index,
            time=a.time,
            kind=a.kind,
            case=a.case,
            seq=seq,
            deadline_factor=a.deadline_factor,
            slo_stretch=a.slo_stretch,
        )
        for seq, a in enumerate(merged)
    ]
