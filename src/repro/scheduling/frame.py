"""The placement kernel shared by every list-scheduling heuristic.

Every strategy in the registry — static HEFT, the paper's AHEFT, CPOP,
lookahead HEFT, HEFT with task duplication, the batch adapters of the
Min-Min family, the min-cost-flow scheduler and the simple baselines —
places jobs through :class:`PartialScheduleFrame`.  A frame is one
(re)scheduling pass at time ``clock`` over a partially executed workflow
(the replanner ``H`` inside the adaptive loop of paper Fig. 2): finished
and running work stays where it is, only the remainder is re-mapped,
around any foreign (other-tenant) bookings on a shared grid.  Plain HEFT
is the degenerate pass at ``clock = 0`` with no previous schedule (paper
§3.4).

* finished jobs are pinned at their actual start/finish, running jobs at
  their scheduled finish time (a running job is never migrated),
* per-resource timelines start at ``clock`` and carry the
  pinned intervals plus the merged foreign ``busy`` spans (on a shared
  grid, cut from the booking directory's lanes by
  :func:`~repro.scheduling.bookings.foreign_timelines`),
* :meth:`PartialScheduleFrame.fea` computes the file-earliest-availability
  of Eq. (1)–(3) (Cases 1–3 plus the otherwise-case), extended with
  duplicate copies: a duplicate execution of a predecessor placed on the
  candidate resource is a local data source from its finish onwards,
* :meth:`PartialScheduleFrame.min_eft_placement` is HEFT's minimum-EFT
  rule over that FEA.

A strategy is a *placement policy* over a frame: a ``name``, its own
fields, and ``place(frame) -> Schedule``, which maps every job in
``frame.to_schedule``.  The one driver pair :func:`plan` (the clock-0
pass) and :func:`replan` (the mid-flight pass) builds the frame and calls
it; each strategy class binds them in its own body (``schedule = plan``,
plus ``reschedule = replan`` for the strategies that replan), so every
class keeps its entry points in its own ``__dict__``.

Performance
-----------
With placement-uniform communication
(:attr:`~repro.workflow.costs.CostModel.has_uniform_communication`) and the
cost model's own workflow, :meth:`~PartialScheduleFrame.min_eft_placement`
runs a fast kernel instead of |R| scalar FEA sweeps per job: the dense
memoized computation rows, index-addressed per-job state (finished flag,
AFT, executed-on resource, recorded arrivals, and the finish/resource of
every placed job), a per-predecessor default/override decomposition of the
ready time (one ready time ``d1`` on every resource but a few overrides),
and :func:`_best_first_scan`.  That scan visits a job's resources
cheapest-first, in the cost model's memoised ascending-cost order
(:meth:`~repro.workflow.costs.CostModel.computation_order`, fetched on the
first insertion scan, so append-only placement and flow waves never build
it), stops where ``d1 + w`` passes the best finish, and replays the
scalar scan's acceptance chain over the few resources near the best;
where its proof does not hold (a finish on the boundary, or clocks from
about 1e7 on, where ``fl(best + 2·TIME_EPS - TIME_EPS)`` rounds back to
``best``) it falls back to the ordered chain, :func:`_ordered_chain`.
HEFT's and AHEFT's rank-order placement hands the whole order to
:meth:`~PartialScheduleFrame.place_in_order`, which runs the predecessor
pass, the scan and the booking of every job in one dense loop.  The exact
per-resource ready time of the decomposition (``_ready_on``) also
answers :meth:`~PartialScheduleFrame.earliest_finish` on such a frame, so
strategies that book a chosen resource directly (the min-cost-flow
waves) skip the scalar FEA too; :meth:`~PartialScheduleFrame.fea` and
:meth:`~PartialScheduleFrame.ready_time` stay the scalar reference.  The
frame also keeps each resource's count of bookings still running after
the clock (:meth:`~PartialScheduleFrame.running_tasks`, the OCTOPUS
load), counted once and then bumped by its own bookings.  Every fast path
is bit-identical to the scalar loop (``tests/test_frame_fast_path.py``,
and ``tests/test_best_first_scan.py`` for the best-first scan against the
ordered chain) and to the frozen seed kernel kept as a test oracle in
``benchmarks/_seed_reference.py`` (``tests/test_scheduling_base.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.scheduling import bookings
from repro.scheduling.base import (
    _GAP_FILTER_SLACK,
    Assignment,
    ExecutionState,
    FACT_FINISHED,
    JobStatus,
    ResourceTimeline,
    Schedule,
    TIME_EPS,
)
from repro.scheduling.bookings import BusyIntervals, occupy_busy_intervals
from repro.workflow.costs import CostModel, ascending_order
from repro.workflow.dag import Workflow

__all__ = [
    "BusyIntervals",
    "PartialScheduleFrame",
    "clone_timeline",
    "occupy_busy_intervals",
    "plan",
    "replan",
]

_NEG_INF = float("-inf")
_POS_INF = float("inf")
#: pre-folded right-hand side of the epsilon-duration guard
#: ``duration - TIME_EPS > TIME_EPS + _GAP_FILTER_SLACK``
_EPS_SLACK = TIME_EPS + _GAP_FILTER_SLACK
#: the best-first scan's margin above the best exact finish so far
_TWO_EPS = 2 * TIME_EPS


def _unplaced_predecessor(pred: str, job: str) -> RuntimeError:
    return RuntimeError(
        f"predecessor {pred!r} of {job!r} is neither executed nor scheduled; "
        "the placement order is not topologically consistent"
    )


def _scheduled_transfer_arrival(
    pred: str,
    job: str,
    candidate_resource: str,
    costs: CostModel,
    previous_schedule: Optional[Schedule],
    state: ExecutionState,
) -> Optional[float]:
    """Arrival time of the ``pred -> job`` data on ``candidate_resource`` if
    its transfer was already initiated under the previous schedule.

    Under the static-strategy file-transfer rule (paper §4.1 assumption 2)
    the Executor ships the edge's data immediately on ``pred``'s completion
    to the resource where ``job`` was scheduled in ``S0``.  If that resource
    is the candidate resource, the transfer started at ``AFT(pred)`` and
    arrives ``c_{pred,job}`` later.  Explicit arrivals recorded by the
    Executor in the execution state take precedence.
    """
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


class _EftScanBuffers:
    """Reusable per-frame scratch for the min-EFT scans.

    Mirrors the timeline fields the scan reads (``available_from`` plus the
    interval list and the finish/gap bounds) into parallel per-resource
    lists.  A frame allocates one instance and, after occupying resource
    ``j``, refreshes only that resource's entries — replacing five attribute
    loads × |R| per job with plain list indexing.  Every value is read from
    the same timeline fields the direct scan would read, so placement stays
    bit-identical.
    """

    __slots__ = (
        "timelines",
        "avail",
        "max_finish",
        "max_gap_slack",
        "gap_end",
        "first_start",
        "evaluated",
        "fallbacks",
    )

    def __init__(self, timeline_list: Sequence[ResourceTimeline]) -> None:
        timelines = list(timeline_list)
        self.timelines = timelines
        self.avail = [t.available_from for t in timelines]
        self.max_finish = [t._max_finish for t in timelines]
        #: the max-gap guard's right-hand side, pre-folded: the scan
        #: compares against ``_max_gap_bound + _GAP_FILTER_SLACK``, whose
        #: operands change only when the timeline does
        self.max_gap_slack = [t._max_gap_bound + _GAP_FILTER_SLACK for t in timelines]
        self.gap_end = [t._gap_end_bound for t in timelines]
        #: start of the first interval (``+inf`` when empty), for the
        #: leading-region check without touching the interval list
        self.first_start = [
            t._intervals[0][0] if t._intervals else _POS_INF for t in timelines
        ]
        #: resources :func:`_best_first_scan` evaluated exactly, and the
        #: scans that fell back to the ordered chain, over the frame's life
        self.evaluated = 0
        self.fallbacks = 0

    def refresh(self, j: int) -> None:
        """Re-read resource ``j``'s fields after its timeline was occupied."""
        timeline = self.timelines[j]
        intervals = timeline._intervals
        self.max_finish[j] = timeline._max_finish
        self.max_gap_slack[j] = timeline._max_gap_bound + _GAP_FILTER_SLACK
        self.gap_end[j] = timeline._gap_end_bound
        self.first_start[j] = intervals[0][0] if intervals else _POS_INF


def _append_scan(
    buf: _EftScanBuffers, ready_list: Sequence[float], w_row: Sequence[float]
) -> tuple:
    """The scalar scan without insertion: every start is ``max(base, last finish)``.

    Returns ``(index, start, finish)`` into the caller's resource order.
    """
    avail_l = buf.avail
    max_finish_l = buf.max_finish
    best_j = -1
    best_start = 0.0
    best_finish = _NEG_INF
    for j in range(len(w_row)):
        ready = ready_list[j]
        avail = avail_l[j]
        base = ready if ready > avail else avail
        max_finish = max_finish_l[j]
        start = base if base > max_finish else max_finish
        finish = start + w_row[j]
        if best_j < 0 or finish < best_finish - TIME_EPS:
            best_j = j
            best_start = start
            best_finish = finish
    return best_j, best_start, best_finish


def _exact_start(buf: _EftScanBuffers, j: int, ready: float, duration: float) -> float:
    """``earliest_start(ready, duration)`` on resource ``j``, without a call
    where an O(1) case of it applies.

    The inlined cases are the ones
    :meth:`~repro.scheduling.base.ResourceTimeline.earliest_start` takes
    first (empty timeline, ready at/past the last finish, task longer than
    the conservative max-gap bound, ready past the last tracked gap),
    evaluated through the *same float expressions*, so they can never
    disagree; an empty timeline has ``max_finish = -inf``, folding it into
    the first comparison.  Anything else pays the gap search.
    """
    avail = buf.avail[j]
    base = ready if ready > avail else avail
    max_finish = buf.max_finish[j]
    if base >= max_finish:
        return base
    deps = duration - TIME_EPS
    if deps > buf.max_gap_slack[j] or (deps > _EPS_SLACK and base >= buf.gap_end[j]):
        if base + duration - TIME_EPS <= buf.first_start[j]:
            return base
        return max_finish
    return buf.timelines[j].earliest_start(ready, duration, insertion=True)


def _ordered_chain(
    buf: _EftScanBuffers, ready_list: Sequence[float], w_row: Sequence[float]
) -> tuple:
    """The scalar scan's acceptance chain, in pool order, with pruning.

    The scalar loop scans resources in order, accepting resource ``j``
    when ``finish_j < best_finish - TIME_EPS``.  This replays that chain
    with each resource's O(1) exact cases inlined (:func:`_exact_start`'s
    expressions) and, elsewhere, lower-bound pruning: ``lb_j = max(ready_j,
    available_from_j) + duration_j <= finish_j`` (a gap search never starts
    before the clamped ready time), so once a best exists, ``lb_j >=
    best_finish - TIME_EPS`` proves resource ``j`` is never accepted and
    its gap search is skipped.  Every value the chain compares is the true
    finish, so the winner and its start are the scalar chain's.

    Returns ``(index, start, finish)`` into the caller's resource order.
    """
    avail_l = buf.avail
    max_finish_l = buf.max_finish
    max_gap_l = buf.max_gap_slack
    gap_end_l = buf.gap_end
    first_start_l = buf.first_start
    best_j = -1
    best_start = 0.0
    best_finish = _NEG_INF
    for j in range(len(w_row)):
        ready = ready_list[j]
        avail = avail_l[j]
        base = ready if ready > avail else avail
        duration = w_row[j]
        max_finish = max_finish_l[j]
        if base >= max_finish:
            start = base
        else:
            deps = duration - TIME_EPS
            if deps > max_gap_l[j] or (deps > _EPS_SLACK and base >= gap_end_l[j]):
                if base + duration - TIME_EPS <= first_start_l[j]:
                    start = base
                else:
                    start = max_finish
            else:
                if best_j >= 0 and base + duration >= best_finish - TIME_EPS:
                    continue
                start = buf.timelines[j].earliest_start(ready, duration, insertion=True)
        finish = start + duration
        if best_j < 0 or finish < best_finish - TIME_EPS:
            best_j = j
            best_start = start
            best_finish = finish
    return best_j, best_start, best_finish


def _best_first_scan(
    buf: _EftScanBuffers,
    d1: float,
    over: Dict[int, float],
    w_row: Sequence[float],
    order_row: Sequence[int],
) -> tuple:
    """Pick the min-EFT resource cheapest-first, provably matching the
    scalar scan.

    ``d1`` is the job's ready time on every resource but the override
    resources ``over`` (index -> exact ready time, see
    :meth:`PartialScheduleFrame.min_eft_placement`); it is at/after every
    resource's ``available_from``, as a frame's ready times start at its
    clock.  ``order_row`` lists the pool indices in ascending ``w_row``
    order (:meth:`~repro.workflow.costs.CostModel.computation_order`).

    1. Every override resource gets its exact finish first.
    2. The walk visits the other resources in ``order_row`` while ``d1 +
       w_j < T``, with ``T = fl(μ + 2·TIME_EPS)`` and ``μ`` the best exact
       finish so far, evaluating each exact finish (:func:`_exact_start`'s
       expressions).  A non-override resource's start is at least ``d1``,
       and float addition is monotone, so ``d1 + w_j`` bounds its finish
       from below; along the order the bound never decreases, so every
       resource the walk stops before has ``finish >= T``.  ``T`` only
       falls, so an evaluated finish at/above it when evaluated stays
       at/above the final ``T`` and is not kept.
    3. The near set ``N`` holds the evaluated resources whose finish is
       below ``L = fl(T - TIME_EPS)``.
    4. The scalar acceptance chain (``finish < fl(best - TIME_EPS)``) is
       replayed over ``N`` alone, in pool order.

    Why the winner cannot change: suppose no exact finish falls in ``[L,
    T)`` and ``μ < L``, so every resource is near (``< L``) or far (``>=
    T``) and ``N`` is not empty.  When the full chain's best is a far
    resource ``f``, a near resource ``n`` is accepted: ``fl(finish_f -
    TIME_EPS) >= fl(T - TIME_EPS) = L > finish_n`` (rounding is
    monotone).  When its best is a near resource ``n'``, a far ``f`` is
    never accepted: ``fl(finish_n' - TIME_EPS) <= finish_n' < L <= T <=
    finish_f``.  So the chain may accept far resources only before the
    first near resource in pool order, which then displaces them (or
    opens the chain), and from there on it compares near resources only,
    exactly like the chain over ``N`` — whose winner and start are
    therefore the scalar chain's, bit for bit.  Where either condition
    fails — with a finish on the boundary, or at clocks where the margin
    is too thin for the rounding (every clock from 2^25 on, and those in
    ``[2^23, 2^24)``, where ``L`` rounds back to ``μ``) — the scan falls
    back to the ordered chain, :func:`_ordered_scan`.

    Returns ``(index, start, finish)`` into the caller's resource order and
    counts the evaluated resources and fallbacks on ``buf``.
    """
    max_finish_l = buf.max_finish
    max_gap_l = buf.max_gap_slack
    gap_end_l = buf.gap_end
    first_start_l = buf.first_start
    found = []  # (index, start, finish) of the kept evaluations
    best = _POS_INF
    bound = _POS_INF
    for j, ready in over.items():
        duration = w_row[j]
        start = _exact_start(buf, j, ready, duration)
        finish = start + duration
        if finish < bound:
            found.append((j, start, finish))
            if finish < best:
                best = finish
                bound = best + _TWO_EPS
    skipped = 0  # override resources the walk passes over
    eps = TIME_EPS
    eps_slack = _EPS_SLACK
    two_eps = _TWO_EPS
    for j in order_row:
        duration = w_row[j]
        if d1 + duration >= bound:
            walked = order_row.index(j)
            break
        if j in over:
            skipped += 1
            continue
        # :func:`_exact_start` inlined, at ready time ``d1`` (which is
        # also the clamped base: ``d1`` is at/after every ``avail``)
        max_finish = max_finish_l[j]
        if d1 >= max_finish:
            start = d1
        else:
            deps = duration - eps
            if deps > max_gap_l[j] or (deps > eps_slack and d1 >= gap_end_l[j]):
                if d1 + duration - eps <= first_start_l[j]:
                    start = d1
                else:
                    start = max_finish
            else:
                start = buf.timelines[j].earliest_start(d1, duration, insertion=True)
        finish = start + duration
        if finish < bound:
            found.append((j, start, finish))
            if finish < best:
                best = finish
                bound = best + two_eps
    else:
        walked = len(order_row)
    buf.evaluated += len(over) + walked - skipped
    low = bound - TIME_EPS
    if best < low:
        winner = None
        near = None  # the near set, once it holds a second resource
        for item in found:
            finish = item[2]
            if finish >= bound:
                continue
            if finish >= low:
                break  # a boundary finish: the split proves nothing
            if winner is None:
                winner = item
            elif near is None:
                near = [winner, item]
            else:
                near.append(item)
        else:
            if near is None:
                return winner
            near.sort()
            winner = near[0]
            for item in near:
                if item[2] < winner[2] - TIME_EPS:
                    winner = item
            return winner
    buf.fallbacks += 1
    return _ordered_scan(buf, d1, over, w_row)


def _ordered_scan(
    buf: _EftScanBuffers,
    d1: float,
    over: Dict[int, float],
    w_row: Sequence[float],
    order_row: Optional[Sequence[int]] = None,
) -> tuple:
    """:func:`_ordered_chain` over the ready times ``d1`` and ``over``.

    Takes :func:`_best_first_scan`'s arguments (``order_row`` unused), so
    it is that scan's fallback and its reference in the differential
    tests and the kernel benchmark.
    """
    ready_list = [d1] * len(w_row)
    for j, ready in over.items():
        ready_list[j] = ready
    return _ordered_chain(buf, ready_list, w_row)


def clone_timeline(timeline: ResourceTimeline) -> ResourceTimeline:
    """An independent copy of a timeline (for tentative what-if placement)."""
    clone = ResourceTimeline(
        timeline.resource_id, available_from=timeline.available_from
    )
    for start, finish, job_id in timeline.intervals():
        clone.occupy(start, finish, job_id)
    return clone


class PartialScheduleFrame:
    """Pinning, timelines, FEA queries and min-EFT placement for one pass.

    The pins come off the execution state's dense facts
    (:meth:`~repro.scheduling.base.ExecutionState.started_facts`), one
    code per dense job id: a finished job is pinned with the executed
    :class:`~repro.scheduling.base.Assignment` the state holds — the
    monitor's own fact object in a noisy run, none is rebuilt — and a
    running job at its scheduled finish.  A state read off a plan derives
    the dense view once from its dicts.
    """

    def __init__(
        self,
        workflow: Workflow,
        costs: CostModel,
        resources: Sequence[str],
        *,
        clock: float = 0.0,
        previous_schedule: Optional[Schedule] = None,
        execution_state: Optional[ExecutionState] = None,
        busy: Optional[BusyIntervals] = None,
        name: str = "schedule",
    ) -> None:
        if not resources:
            raise ValueError("cannot schedule on an empty resource set")
        seen: Set[str] = set()
        for rid in resources:
            if rid in seen:
                raise ValueError(f"duplicate resource id {rid!r} in the pool")
            seen.add(rid)
        if not clock >= 0:  # also rejects NaN
            raise ValueError(f"clock must be a non-negative number, got {clock!r}")
        workflow.validate()
        self.workflow = workflow
        self.costs = costs
        self.resources = list(resources)
        self.clock = float(clock)
        self.previous_schedule = previous_schedule

        if execution_state is None:
            if previous_schedule is not None:
                execution_state = ExecutionState.from_schedule(
                    previous_schedule, clock, jobs=workflow.jobs
                )
            else:
                execution_state = ExecutionState.initial(workflow.jobs)
        self.state = execution_state

        # ------------------------------------------------------------------
        # pinned (finished / running) vs re-mappable jobs, read off the
        # state's dense facts: a finished job keeps its executed assignment
        # ------------------------------------------------------------------
        structure = workflow.structure()
        codes, finished_facts = execution_state.started_facts(structure)
        pinned: Dict[str, Assignment] = {}
        to_schedule: List[str] = []
        for i, job in enumerate(structure.jobs):
            code = codes[i]
            if not code:
                to_schedule.append(job)
            elif code == FACT_FINISHED:
                pinned[job] = finished_facts[i]
            else:
                rid = execution_state.executed_on[job]
                start = execution_state.actual_start[job]
                booked = previous_schedule.get(job) if previous_schedule is not None else None
                if booked is not None:
                    sft = booked.finish
                else:
                    # without S0 information fall back to the estimate
                    sft = start + costs.computation_cost(job, rid)
                pinned[job] = Assignment(job, rid, start, sft)
        self.pinned = pinned
        self.to_schedule: List[str] = to_schedule
        self.to_schedule_set: Set[str] = set(self.to_schedule)

        # ------------------------------------------------------------------
        # historical duplicates: copies from the previous plan that already
        # began executing by ``clock`` are facts — pinned consumers may have
        # started from their local data, so dropping them would make the
        # pinned history look precedence-infeasible.  Future duplicates are
        # dropped and re-derived by the placement pass; a running duplicate
        # on a departed resource is dropped (its work is lost).
        # ------------------------------------------------------------------
        resource_set = set(self.resources)
        historical_dups: List[Assignment] = []
        if previous_schedule is not None:
            for dup in previous_schedule.duplicates:
                if dup.start > self.clock + TIME_EPS:
                    continue
                if dup.resource_id not in resource_set and dup.finish > self.clock + TIME_EPS:
                    continue
                historical_dups.append(dup)

        # ------------------------------------------------------------------
        # timelines: pinned work + historical duplicates + merged busy spans;
        # new work can only start at/after ``clock``
        # ------------------------------------------------------------------
        starts = dict.fromkeys(self.resources, clock)
        occupying = list(pinned.values()) + historical_dups
        if busy is None:
            self.timelines: Dict[str, ResourceTimeline] = {
                rid: ResourceTimeline(rid, available_from=start)
                for rid, start in starts.items()
            }
            batches: Dict[str, List[tuple]] = {}
            for assignment in occupying:
                timeline = self.timelines.get(assignment.resource_id)
                if timeline is not None and assignment.finish > timeline.available_from:
                    batches.setdefault(assignment.resource_id, []).append(
                        (assignment.start, assignment.finish, assignment.job_id)
                    )
            for rid, batch in batches.items():
                self.timelines[rid].bulk_load(batch)
        else:
            # shared grid: foreign bookings come cut from the booking
            # directory's lanes; a resource carrying pinned work merges it
            # with them in one booking pass, because independently repaired
            # plans can transiently overlap after a performance change
            self.timelines = bookings.foreign_timelines(busy, starts, occupying)

        self.schedule = Schedule.of(pinned.values(), name=name)
        #: duplicate copies placed so far: (job, resource) -> earliest finish
        self._dup_finish: Dict[Tuple[str, str], float] = {}
        #: resources carrying a duplicate copy, per job (for the fast path's
        #: override enumeration)
        self._dup_rids: Dict[str, List[str]] = {}
        for dup in historical_dups:
            self.schedule.add_duplicate(dup)
            key = (dup.job_id, dup.resource_id)
            current = self._dup_finish.get(key)
            if current is None or dup.finish < current:
                self._dup_finish[key] = dup.finish
            self._dup_rids.setdefault(dup.job_id, []).append(dup.resource_id)
        #: bookings finishing after ``clock + TIME_EPS`` per resource,
        #: counted on first use (see :meth:`running_tasks`)
        self._running: Optional[Dict[str, int]] = None

        # ------------------------------------------------------------------
        # fast-path state (see :meth:`min_eft_placement`): every per-job
        # quantity the ready-time decomposition reads, addressed by dense
        # job id — at 100k-job scale the placement loop touches them once
        # per edge, which dwarfs the one pass over the state dicts here
        # ------------------------------------------------------------------
        self._fast = workflow is costs.workflow and costs.has_uniform_communication
        self._scan_buf: Optional[_EftScanBuffers] = None
        if not self._fast:
            return
        index = structure.index
        num_jobs = structure.num_jobs
        self._job_index = index
        self._job_names = structure.jobs
        self._w_rows = costs.computation_rows(self.resources)
        self._pred_comm = costs.predecessor_communications()
        self._rid_index = {rid: j for j, rid in enumerate(self.resources)}
        self._scan_buf = _EftScanBuffers(
            [self.timelines[rid] for rid in self.resources]
        )
        #: the pool's ascending-cost order rows (:meth:`_cost_order`)
        self._order: Optional[List] = None
        finished = bytearray(num_jobs)
        aft: List[float] = [0.0] * num_jobs
        executed_on: List[Optional[str]] = [None] * num_jobs
        for p, fact in enumerate(finished_facts):
            if fact is not None:
                finished[p] = 1
                aft[p] = fact.finish
                executed_on[p] = fact.resource_id
        arrivals: List[tuple] = [()] * num_jobs
        for (producer, rid), time in self.state.data_arrivals.items():
            p = index.get(producer)
            if p is not None:
                arrivals[p] = arrivals[p] + ((rid, time),)
        self._finished = finished
        self._aft = aft
        self._executed_on = executed_on
        self._arrivals = arrivals
        #: finish time and resource of every pinned or placed job
        self._finish_of: List[Optional[float]] = [None] * num_jobs
        self._resource_of: List[Optional[str]] = [None] * num_jobs
        for assignment in pinned.values():
            p = index[assignment.job_id]
            self._finish_of[p] = assignment.finish
            self._resource_of[p] = assignment.resource_id

    # ------------------------------------------------------------------
    # FEA queries (paper Eq. 1–3, duplicate-aware)
    # ------------------------------------------------------------------
    def fea(self, pred: str, job: str, rid: str) -> float:
        """Earliest availability of ``pred``'s output on ``rid``."""
        state = self.state
        if state.job_status(pred) is JobStatus.FINISHED:
            executed_on = state.executed_on[pred]
            finish = state.actual_finish[pred]
            if executed_on == rid:
                base = finish  # Case 1
            else:
                arrival = _scheduled_transfer_arrival(
                    pred, job, rid, self.costs, self.previous_schedule, state
                )
                if arrival is not None:
                    base = arrival  # transfer already under way (or done)
                else:
                    comm = self.costs.communication_cost(pred, job, executed_on, rid)
                    base = self.clock + comm  # Case 2
        else:
            pred_assignment = self.schedule.get(pred)
            if pred_assignment is None:
                raise _unplaced_predecessor(pred, job)
            if pred_assignment.resource_id == rid:
                base = pred_assignment.finish  # Case 3
            else:
                comm = self.costs.communication_cost(
                    pred, job, pred_assignment.resource_id, rid
                )
                base = pred_assignment.finish + comm  # otherwise
        dup = self._dup_finish.get((pred, rid))
        if dup is not None and dup < base:
            return dup
        return base

    def ready_time(self, job: str, rid: str) -> float:
        """Earliest time every input of ``job`` is available on ``rid``."""
        ready = self.clock
        for pred in self.workflow.predecessors(job):
            value = self.fea(pred, job, rid)
            if value > ready:
                ready = value
        return ready

    def earliest_finish(
        self, job: str, rid: str, *, insertion: bool = True
    ) -> Tuple[float, float]:
        """``(start, finish)`` of the best slot for ``job`` on ``rid``.

        A fast frame reads the ready time and the duration off its dense
        state (:meth:`_ready_on`, the computation rows), bit-identical to
        :meth:`ready_time` and the cost model's scalar query.
        """
        if self._fast:
            i = self._job_index[job]
            ready = self._ready_on(i, rid, self._previous_target(job))
            duration = self._w_rows[i][self._rid_index[rid]]
        else:
            ready = self.ready_time(job, rid)
            duration = self.costs.computation_cost(job, rid)
        start = self.timelines[rid].earliest_start(ready, duration, insertion=insertion)
        return start, start + duration

    def _previous_target(self, job: str) -> Optional[str]:
        """The resource ``job`` was mapped to in the previous schedule."""
        prev = self.previous_schedule
        old = prev._assignments.get(job) if prev is not None else None
        return old.resource_id if old is not None else None

    def _ready_on(self, i: int, rid: str, old_rid: Optional[str]) -> float:
        """:meth:`ready_time` of dense job ``i`` on ``rid``, on a fast frame.

        One FEA case per predecessor off the dense per-job state, with
        placement-uniform communication ``comm``; ``old_rid`` is the job's
        previous target (:meth:`_previous_target`).
        """
        clock = self.clock
        finished = self._finished
        aft_of = self._aft
        executed_on = self._executed_on
        arrivals_of = self._arrivals
        finish_of = self._finish_of
        resource_of = self._resource_of
        job_names = self._job_names
        dup_finish = self._dup_finish
        ready = clock
        for p, comm in self._pred_comm[i]:
            if finished[p]:
                if executed_on[p] == rid:
                    value = aft_of[p]  # Case 1
                else:
                    recorded = None
                    for arid, time in arrivals_of[p]:
                        if arid == rid:
                            recorded = time
                            break
                    if recorded is not None:
                        value = recorded  # recorded transfer
                    elif rid == old_rid:
                        value = aft_of[p] + comm  # implied transfer
                    else:
                        value = clock + comm  # Case 2
            else:
                pred_finish = finish_of[p]
                if pred_finish is None:
                    raise _unplaced_predecessor(job_names[p], job_names[i])
                if resource_of[p] == rid:
                    value = pred_finish  # Case 3
                else:
                    value = pred_finish + comm  # otherwise
            if dup_finish:
                dup = dup_finish.get((job_names[p], rid))
                if dup is not None and dup < value:
                    value = dup
            if value > ready:
                ready = value
        return ready

    def running_tasks(self, rid: str) -> int:
        """Bookings on ``rid`` that finish after ``clock + TIME_EPS``.

        Counted off the timelines on first use; from then on :meth:`place`
        and :meth:`place_duplicate`, the frame's only booking points, keep
        the counts.
        """
        running = self._running
        if running is None:
            after = self.clock + TIME_EPS
            running = self._running = {
                r: timeline.count_finishing_after(after)
                for r, timeline in self.timelines.items()
            }
        return running[rid]

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, job: str, rid: str, start: float, finish: float) -> Assignment:
        assignment = Assignment(job, rid, start, finish)
        self.timelines[rid].occupy(start, finish, job)
        self.schedule.add(assignment)
        if self._running is not None and finish > self.clock + TIME_EPS:
            self._running[rid] += 1
        if self._scan_buf is not None:
            self._scan_buf.refresh(self._rid_index[rid])
            p = self._job_index[job]
            self._finish_of[p] = finish
            self._resource_of[p] = rid
        return assignment

    def place_duplicate(
        self, job: str, rid: str, start: float, finish: float
    ) -> Assignment:
        """Book a redundant copy of an already-known job on ``rid``."""
        assignment = Assignment(job, rid, start, finish)
        self.timelines[rid].occupy(start, finish, f"<dup:{job}>")
        self.schedule.add_duplicate(assignment)
        if self._running is not None and finish > self.clock + TIME_EPS:
            self._running[rid] += 1
        current = self._dup_finish.get((job, rid))
        if current is None or finish < current:
            self._dup_finish[(job, rid)] = finish
        self._dup_rids.setdefault(job, []).append(rid)
        if self._scan_buf is not None:
            self._scan_buf.refresh(self._rid_index[rid])
        return assignment

    # ------------------------------------------------------------------
    def min_eft_placement(
        self, job: str, *, insertion: bool = True
    ) -> Tuple[str, float, float]:
        """HEFT's minimum-EFT rule over all resources (deterministic ties).

        The scalar loop (one :meth:`earliest_finish` per resource) is the
        reference semantics.  On the fast path every predecessor's FEA
        collapses to a *default* valid on almost every resource plus a few
        per-resource overrides:

        * finished predecessor — default ``clock + c̄`` (Case 2), overridden
          on the resource it ran on (``AFT``, Case 1), on resources with a
          recorded transfer (arrival time), and on the job's previous
          target (``AFT + c̄``, the static-strategy transfer rule),
        * unfinished predecessor — default ``SFT + c̄`` (otherwise-case),
          overridden on its own resource (``SFT``, Case 3),
        * either — a duplicate copy on a resource is a ``min`` override.

        Every override *lowers* the predecessor's value relative to its
        default (data local or in flight arrives no later than a transfer
        started now; a co-located successor skips the transfer), up to the
        epsilon by which a "finished" AFT may exceed ``clock``.  Hence
        ``ready(rid)`` equals the max default ``d1`` on every resource
        except the override resources of one fixed argmax-default
        predecessor — plus the rare epsilon violators — which get the exact
        per-predecessor max before the shared :func:`_best_first_scan`
        (:meth:`_min_eft_dense`, unbooked).
        """
        if self._fast:
            return self._min_eft_dense((job,), insertion, False)
        best_rid: Optional[str] = None
        best_start = 0.0
        best_finish = float("inf")
        for rid in self.resources:
            start, finish = self.earliest_finish(job, rid, insertion=insertion)
            if best_rid is None or finish < best_finish - TIME_EPS:
                best_rid = rid
                best_start = start
                best_finish = finish
        assert best_rid is not None
        return best_rid, best_start, best_finish

    def place_in_order(self, jobs: Sequence[str], *, insertion: bool = True) -> None:
        """Place ``jobs`` one after another, each on its min-EFT resource.

        The same choices as :meth:`min_eft_placement` followed by
        :meth:`place` per job; a fast frame runs them as one dense loop.
        """
        if self._fast:
            self._min_eft_dense(jobs, insertion, True)
            return
        for job in jobs:
            rid, start, finish = self.min_eft_placement(job, insertion=insertion)
            self.place(job, rid, start, finish)

    def _cost_order(self) -> List:
        """The pool's ascending-cost order rows, fetched on first use."""
        order = self._order
        if order is None:
            costs = self.costs
            if costs.cache_token() is None:
                # not memoised: order this frame's rows, not a second pricing
                order = ascending_order(self._w_rows)
            else:
                order = costs.computation_order(self.resources)
            self._order = order
        return order

    def _min_eft_dense(
        self, jobs: Sequence[str], insertion: bool, book: bool
    ) -> Optional[Tuple[str, float, float]]:
        """The fast path's min-EFT kernel over ``jobs``, in order.

        Per job: the predecessor pass of :meth:`min_eft_placement` (the
        max default ``d1`` and the override resources, each given its
        exact :meth:`_ready_on`), then :func:`_best_first_scan` (or
        :func:`_append_scan` without insertion).  With ``book`` every
        choice is booked as :meth:`place` books it; without, the first
        job's choice is returned unbooked.
        """
        clock = self.clock
        finished = self._finished
        aft_of = self._aft
        executed_on = self._executed_on
        arrivals_of = self._arrivals
        finish_of = self._finish_of
        resource_of = self._resource_of
        job_names = self._job_names
        job_index = self._job_index
        pred_comm = self._pred_comm
        w_rows = self._w_rows
        rid_index = self._rid_index
        dup_finish = self._dup_finish
        dup_rids = self._dup_rids
        ready_on = self._ready_on
        resources = self.resources
        n = len(resources)
        buf = self._scan_buf
        order = self._cost_order() if insertion else None
        prev = self.previous_schedule
        prev_map = prev._assignments if prev is not None else None
        # booking state (see :meth:`place`)
        timeline_list = buf.timelines
        schedule_add = self.schedule.add
        running = self._running
        after = clock + TIME_EPS
        max_finish_l = buf.max_finish
        max_gap_l = buf.max_gap_slack
        gap_end_l = buf.gap_end
        first_start_l = buf.first_start
        for job in jobs:
            i = job_index[job]
            old = prev_map.get(job) if prev_map is not None else None
            old_rid = old.resource_id if old is not None else None
            d1 = clock
            p1 = -1
            must: List[str] = []  # override resources needing the exact recompute
            for p, comm in pred_comm[i]:
                if finished[p]:
                    default = clock + comm  # Case 2
                    aft = aft_of[p]
                    if aft > default:
                        must.append(executed_on[p])
                    arrivals = arrivals_of[p]
                    if arrivals:
                        for rid, time in arrivals:
                            if time > default:
                                must.append(rid)
                    if old_rid is not None and aft + comm > default:
                        must.append(old_rid)
                else:
                    pred_finish = finish_of[p]
                    if pred_finish is None:
                        raise _unplaced_predecessor(job_names[p], job)
                    default = pred_finish + comm  # otherwise
                    if pred_finish > default:  # negative comm (defensive)
                        must.append(resource_of[p])
                if default > d1:
                    d1 = default
                    p1 = p
            if p1 >= 0:
                if finished[p1]:
                    must.append(executed_on[p1])
                    for rid, _time in arrivals_of[p1]:
                        must.append(rid)
                    if old_rid is not None:
                        must.append(old_rid)
                else:
                    must.append(resource_of[p1])
                if dup_finish:
                    must.extend(dup_rids.get(job_names[p1], ()))
            over: Dict[int, float] = {}
            for rid in must:
                j = rid_index.get(rid)
                # an override on a resource that left the pool is moot
                if j is not None and j not in over:
                    over[j] = ready_on(i, rid, old_rid)
            if insertion:
                j, start, finish = _best_first_scan(buf, d1, over, w_rows[i], order[i])
            else:
                ready_list = [d1] * n
                for j, ready in over.items():
                    ready_list[j] = ready
                j, start, finish = _append_scan(buf, ready_list, w_rows[i])
            rid = resources[j]
            if not book:
                return rid, start, finish
            timeline = timeline_list[j]
            timeline.occupy(start, finish, job)
            schedule_add(Assignment(job, rid, start, finish))
            if running is not None and finish > after:
                running[rid] += 1
            intervals = timeline._intervals
            max_finish_l[j] = timeline._max_finish
            max_gap_l[j] = timeline._max_gap_bound + _GAP_FILTER_SLACK
            gap_end_l[j] = timeline._gap_end_bound
            first_start_l[j] = intervals[0][0]
            finish_of[i] = finish
            resource_of[i] = rid
        return None


# ----------------------------------------------------------------------
# the strategy driver
# ----------------------------------------------------------------------
def plan(
    self,
    workflow: Workflow,
    costs: CostModel,
    resources: Sequence[str],
    *,
    busy: Optional[BusyIntervals] = None,
) -> Schedule:
    """Plan a whole workflow at ``clock = 0`` with strategy ``self``.

    Bound as ``schedule`` by every strategy class.  The same pass as
    :func:`replan` with no previous schedule: for HEFT-ordered strategies
    this is static HEFT, which AHEFT reduces to at time 0 (paper §3.4).
    """
    return replan(
        self, workflow, costs, resources, clock=0.0, previous_schedule=None, busy=busy
    )


def replan(
    self,
    workflow: Workflow,
    costs: CostModel,
    resources: Sequence[str],
    *,
    clock: float,
    previous_schedule: Optional[Schedule],
    execution_state: Optional[ExecutionState] = None,
    busy: Optional[BusyIntervals] = None,
) -> Schedule:
    """(Re)schedule a workflow at time ``clock`` with strategy ``self``.

    Bound as ``reschedule`` by the strategies that replan; with AHEFT's
    rank-order placement this is the paper's rescheduling step (§3.4).

    Parameters
    ----------
    workflow, costs:
        The DAG and the estimation matrix ``P`` (refreshed by the Predictor
        before each call, paper Fig. 2 line 5).
    resources:
        The resources available **now** (set ``R`` after the pool update of
        Fig. 2 line 3).
    clock:
        The logical time of the rescheduling decision; new work starts at
        or after it on every resource.
    previous_schedule:
        The schedule ``S0`` currently being executed (None for the initial
        scheduling, in which case AHEFT is identical to HEFT).
    execution_state:
        Snapshot of what has executed so far.  When omitted it is derived
        from ``previous_schedule`` under the accurate-estimate assumption.
        Finished jobs keep their actual placement and running jobs keep
        their resource and scheduled finish time; only not-started jobs
        are re-mapped.
    busy:
        Optional foreign occupied spans per resource — the residual-capacity
        view of a shared grid where other workflows (other tenants) already
        booked slots on the same timelines (a plain mapping or a booking
        directory's :class:`~repro.scheduling.bookings.BusyView`).
        Placement plans around them; they never appear in the returned
        schedule.  ``None`` (default) is the dedicated-grid behaviour,
        bit-identical to the seed kernel.

    Returns
    -------
    Schedule
        A complete schedule containing the (actual) assignments of finished
        and pinned jobs plus new assignments for every re-mapped job.  Its
        :meth:`~repro.scheduling.base.Schedule.makespan` is the predicted
        makespan used by the Planner's accept-if-better rule.
    """
    frame = PartialScheduleFrame(
        workflow,
        costs,
        resources,
        clock=clock,
        previous_schedule=previous_schedule,
        execution_state=execution_state,
        busy=busy,
        name=self.name,
    )
    if not frame.to_schedule:
        return frame.schedule
    return self.place(frame)
