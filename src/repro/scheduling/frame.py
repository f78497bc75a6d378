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
ready time, and :func:`_min_eft_scan`, which replays the scalar scan's
acceptance chain with at most a handful of gap searches.  Every fast path
is bit-identical to the scalar loop (``tests/test_frame_fast_path.py``)
and to the frozen seed kernel kept as a test oracle in
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
from repro.workflow.costs import CostModel
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
    """Reusable per-frame scratch for :func:`_min_eft_scan`.

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

    def refresh(self, j: int) -> None:
        """Re-read resource ``j``'s fields after its timeline was occupied."""
        timeline = self.timelines[j]
        intervals = timeline._intervals
        self.max_finish[j] = timeline._max_finish
        self.max_gap_slack[j] = timeline._max_gap_bound + _GAP_FILTER_SLACK
        self.gap_end[j] = timeline._gap_end_bound
        self.first_start[j] = intervals[0][0] if intervals else _POS_INF


def _min_eft_scan(
    buf: _EftScanBuffers,
    ready_list: Sequence[float],
    w_row: Sequence[float],
    insertion: bool,
) -> tuple:
    """Pick the min-EFT resource, provably matching the scalar scan.

    The scalar loop scans resources in order, accepting resource ``j``
    when ``finish_j < best_finish - TIME_EPS``.  Each exact finish needs an
    ``earliest_start`` gap search — the dominant cost at scale (|R| searches
    per job).  This scan replays the scalar chain in resource order but
    replaces the gap search with cheaper, *provably equal or bounding*
    values per resource:

    * **inlined O(1) exact cases** — the same shortcuts
      :meth:`~repro.scheduling.base.ResourceTimeline.earliest_start` takes
      (empty timeline, ready at/past the last finish, append-only placement,
      task longer than the conservative max-gap bound), evaluated here
      through the *same float expressions* so they can never disagree.  On
      these resources the exact finish costs no gap search and no call.
    * **lower-bound pruning** elsewhere — ``lb_j = max(ready_j,
      available_from_j) + duration_j <= finish_j`` (every gap search returns
      a start at/after the clamped ready time), so once a best exists,
      ``lb_j >= best_finish - TIME_EPS`` proves resource ``j`` could never
      be accepted by the chain and its gap search is skipped.  Only
      resources that survive the prune pay a real ``earliest_start`` call.
    * **single-call fast path** over the mixed values: with ``v_j`` the
      exact finish or lower bound per resource, evaluate the exact finish
      ``F_m`` only at ``m = argmin v`` (first minimal index; free when ``m``
      is an O(1) case).  If ``F_m < second_min_v - TIME_EPS`` then every
      other ``j`` has ``finish_j >= v_j >= second_min_v > F_m + TIME_EPS``:
      the chain's best when it reaches ``m`` exceeds ``F_m + TIME_EPS`` (so
      ``m`` is accepted) and no later resource can displace it — ``m`` is
      the scalar winner from at most one gap search.  With duplicated
      minima ``second_min_v = min_v`` and the fast path cannot trigger, so
      near-ties always fall through to the ordered chain.

    Every value the chain actually compares is the true finish, and skipped
    resources are provably never accepted, so the winner (and its start) is
    bit-identical to the scalar chain.  Resources are *not* reordered:
    acceptance near ties is scan-order dependent, and any reordering could
    change the winner.

    Returns ``(index, start, finish)`` into the caller's resource order.
    """
    n = len(w_row)
    avail_l = buf.avail
    max_finish_l = buf.max_finish
    if not insertion:
        # append-only placement: every start is exactly max(base, finish)
        best_j = -1
        best_start = 0.0
        best_finish = _NEG_INF
        for j in range(n):
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
    max_gap_l = buf.max_gap_slack
    gap_end_l = buf.gap_end
    first_start_l = buf.first_start
    min_v = _POS_INF
    second_v = _POS_INF
    min_j = 0
    min_start = 0.0
    min_exact = True
    for j in range(n):
        ready = ready_list[j]
        avail = avail_l[j]
        base = ready if ready > avail else avail
        duration = w_row[j]
        max_finish = max_finish_l[j]
        # O(1) exact cases, mirroring ``earliest_start`` expression for
        # expression (see its body for the proofs); an empty timeline has
        # ``max_finish = -inf``, folding it into the first comparison
        if base >= max_finish:
            start = base
            is_exact = True
        else:
            deps = duration - TIME_EPS
            if deps > max_gap_l[j] or (deps > _EPS_SLACK and base >= gap_end_l[j]):
                if base + duration - TIME_EPS <= first_start_l[j]:
                    start = base
                else:
                    start = max_finish
                is_exact = True
            else:
                start = base  # lower bound: a gap search never starts earlier
                is_exact = False
        value = start + duration
        if value < min_v:
            second_v = min_v
            min_v = value
            min_j = j
            min_start = start
            min_exact = is_exact
        elif value < second_v:
            second_v = value
    if min_exact:
        m_start = min_start
        m_finish = min_v
    else:
        duration = w_row[min_j]
        m_start = buf.timelines[min_j].earliest_start(
            ready_list[min_j], duration, insertion=True
        )
        m_finish = m_start + duration
    if m_finish < second_v - TIME_EPS:
        return min_j, m_start, m_finish
    # near-tie fallback: replay the full ordered chain, re-deriving each
    # resource's exact-or-bound classification (identical expressions to
    # the first pass, so the values cannot differ)
    best_j = -1
    best_start = 0.0
    best_finish = _NEG_INF
    for j in range(n):
        if j == min_j:
            start = m_start
            finish = m_finish
        else:
            ready = ready_list[j]
            avail = avail_l[j]
            base = ready if ready > avail else avail
            duration = w_row[j]
            max_finish = max_finish_l[j]
            if base >= max_finish:
                start = base
                is_exact = True
            else:
                deps = duration - TIME_EPS
                if deps > max_gap_l[j] or (
                    deps > _EPS_SLACK and base >= gap_end_l[j]
                ):
                    if base + duration - TIME_EPS <= first_start_l[j]:
                        start = base
                    else:
                        start = max_finish
                    is_exact = True
                else:
                    start = base
                    is_exact = False
            if is_exact:
                finish = start + duration
            else:
                if best_j >= 0 and start + duration >= best_finish - TIME_EPS:
                    continue
                start = buf.timelines[j].earliest_start(
                    ready, duration, insertion=True
                )
                finish = start + duration
        if best_j < 0 or finish < best_finish - TIME_EPS:
            best_j = j
            best_start = start
            best_finish = finish
    return best_j, best_start, best_finish


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
                raise RuntimeError(
                    f"predecessor {pred!r} of {job!r} is neither executed nor "
                    "scheduled; the placement order is not topologically "
                    "consistent"
                )
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
        """``(start, finish)`` of the best slot for ``job`` on ``rid``."""
        duration = self.costs.computation_cost(job, rid)
        start = self.timelines[rid].earliest_start(
            self.ready_time(job, rid), duration, insertion=insertion
        )
        return start, start + duration

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, job: str, rid: str, start: float, finish: float) -> Assignment:
        assignment = Assignment(job, rid, start, finish)
        self.timelines[rid].occupy(start, finish, job)
        self.schedule.add(assignment)
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
        per-predecessor max before the shared :func:`_min_eft_scan`.
        """
        if self._fast:
            return self._min_eft_fast(job, insertion)
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

    def _min_eft_fast(self, job: str, insertion: bool) -> Tuple[str, float, float]:
        clock = self.clock
        finished = self._finished
        aft_of = self._aft
        executed_on = self._executed_on
        arrivals_of = self._arrivals
        finish_of = self._finish_of
        resource_of = self._resource_of
        job_names = self._job_names
        i = self._job_index[job]
        prev = self.previous_schedule
        old = prev._assignments.get(job) if prev is not None else None
        old_rid = old.resource_id if old is not None else None
        preds = self._pred_comm[i]
        d1 = clock
        p1 = -1
        must: List[str] = []  # override resources needing the exact recompute
        for p, comm in preds:
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
                    raise RuntimeError(
                        f"predecessor {job_names[p]!r} of {job!r} is neither "
                        "executed nor scheduled; the placement order is not "
                        "topologically consistent"
                    )
                default = pred_finish + comm  # otherwise
                if pred_finish > default:  # negative comm (defensive)
                    must.append(resource_of[p])
            if default > d1:
                d1 = default
                p1 = p
        dup_finish = self._dup_finish
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
                must.extend(self._dup_rids.get(job_names[p1], ()))

        ready_buf = [d1] * len(self.resources)
        for rid in set(must):
            j = self._rid_index.get(rid)
            if j is None:
                continue  # override on a resource that left the pool
            ready = clock
            for p, comm in preds:
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
            ready_buf[j] = ready
        best_j, best_start, best_finish = _min_eft_scan(
            self._scan_buf, ready_buf, self._w_rows[i], insertion
        )
        return self.resources[best_j], best_start, best_finish


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
