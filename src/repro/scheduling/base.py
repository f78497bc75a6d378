"""Core scheduling data structures shared by every heuristic.

* :class:`Assignment` — one job mapped to one resource for a time window.
* :class:`Schedule` — a full mapping (the Planner's plan ``S``), with the
  per-resource timelines needed for insertion-based placement and with
  makespan / SFT queries (paper Eq. 4).
* :class:`ResourceTimeline` — occupied intervals on one resource plus the
  earliest-slot search used by HEFT's insertion policy.
* :class:`ExecutionState` — the run-time snapshot the adaptive Planner uses
  at rescheduling time ``clock``: which jobs finished (AST/AFT), which are
  running, and where produced data currently lives or is in flight.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Assignment",
    "Schedule",
    "ResourceTimeline",
    "JobStatus",
    "ExecutionState",
    "FACT_RUNNING",
    "FACT_FINISHED",
]

#: Numerical slack used when comparing logical times.
TIME_EPS = 1e-9

#: Safety margin for the conservative max-gap filter in
#: :meth:`ResourceTimeline.earliest_start` — generously larger than any
#: accumulated float rounding at the magnitudes logical times reach, and
#: far below any real task duration, so the filter is safely weaker than
#: the exact gap predicate while still firing on essentially every query.
_GAP_FILTER_SLACK = 1e-6


@dataclass(frozen=True)
class Assignment:
    """A job mapped to a resource for ``[start, finish)``.

    ``finish`` is the scheduled finish time SFT(n_i) while the assignment is
    still a plan, and the actual finish time AFT(n_i) once executed.
    """

    job_id: str
    resource_id: str
    start: float
    finish: float

    def __post_init__(self) -> None:
        if self.finish < self.start - TIME_EPS:
            raise ValueError(
                f"assignment of {self.job_id!r} finishes before it starts"
            )

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def shifted(self, delta: float) -> "Assignment":
        """The same assignment translated in time by ``delta``."""
        return replace(self, start=self.start + delta, finish=self.finish + delta)


class ResourceTimeline:
    """Occupied intervals on one resource, kept sorted by start time.

    Provides the earliest-slot search used by HEFT's insertion-based policy:
    a new task of length ``duration`` that becomes ready at ``ready`` is
    placed either inside an idle gap large enough to hold it or after the
    last occupied interval.

    The interval list is maintained sorted with ``bisect.insort``; because
    intervals are pairwise non-overlapping (the ``occupy`` invariant), an
    insertion only has to check its sorted neighbourhood for conflicts and
    the gap scan of :meth:`earliest_start` can start at the bisect position
    of the ready time instead of at index 0.  The maximum finish time is
    cached so :meth:`ready_time` is O(1).
    """

    def __init__(self, resource_id: str, *, available_from: float = 0.0) -> None:
        self.resource_id = resource_id
        self.available_from = float(available_from)
        self._intervals: List[Tuple[float, float, str]] = []
        #: parallel list of start times, for bisect on the ready time
        self._starts: List[float] = []
        #: parallel running maximum of finish times (``_prefix_finish[i]``
        #: is the max finish over ``_intervals[:i + 1]``); lets the gap scan
        #: of :meth:`earliest_start` absorb a whole run of unusable
        #: intervals into its cursor with one bisect instead of walking them
        self._prefix_finish: List[float] = []
        #: exact directory of the internal idle gaps larger than
        #: ``TIME_EPS``, sorted as ``(lo, hi)`` tuples where ``hi`` is the
        #: start of the interval behind the gap and ``lo`` the prefix
        #: maximum of every finish before it — i.e. exactly the cursor the
        #: reference scan of :meth:`earliest_start` would carry into that
        #: position.  For any task longer than the epsilon tolerance the
        #: earliest-slot search reduces to one bisect plus a scan of these
        #: entries; positions whose gap is at most ``TIME_EPS`` can never
        #: accept such a task, so leaving them out loses nothing.
        self._gaps: List[Tuple[float, float]] = []
        self._max_finish: float = float("-inf")
        #: conservative upper bound on the size of any idle gap between
        #: occupied intervals (see :meth:`earliest_start`); only ever
        #: overestimates (exact after :meth:`bulk_load`)
        self._max_gap_bound: float = 0.0
        #: conservative upper bound on the *end* of the last internal idle
        #: gap larger than ``TIME_EPS`` (see :meth:`earliest_start`); a
        #: query ready at/after it can only append at the tail.  Gaps only
        #: ever shrink or split after creation, so the bound stays valid.
        self._gap_end_bound: float = float(available_from)

    # ------------------------------------------------------------------
    def occupy(self, start: float, finish: float, job_id: str) -> None:
        """Mark ``[start, finish)`` as used by ``job_id``.

        Raises
        ------
        ValueError
            If the interval overlaps an existing one (beyond float slack).
        """
        if finish < start - TIME_EPS:
            raise ValueError("finish precedes start")
        start = float(start)
        finish = float(finish)
        item = (start, finish, job_id)
        intervals = self._intervals
        # Tail-append fast path — the overwhelmingly common case when jobs
        # are placed in priority order.  ``start`` at/after every finish
        # (minus the overlap tolerance) rules out any overlap, and a start
        # strictly past the last interval's start keeps the sort order, so
        # the bisects and neighbour scans of the general path are skipped.
        if intervals:
            last = intervals[-1]
            if start >= self._max_finish - TIME_EPS and start > last[0]:
                intervals.append(item)
                self._starts.append(start)
                prefix = self._prefix_finish
                prev = prefix[-1]
                prefix.append(finish if finish > prev else prev)
                if finish > self._max_finish:
                    self._max_finish = finish
                if start - prev > TIME_EPS:
                    insort(self._gaps, (prev, start))
                before = start - last[1]
                if before > TIME_EPS and start > self._gap_end_bound:
                    self._gap_end_bound = start
                if before > self._max_gap_bound:
                    self._max_gap_bound = before
                return
        else:
            intervals.append(item)
            self._starts.append(start)
            self._prefix_finish.append(finish)
            self._max_finish = finish
            before = start - self.available_from
            if before > self._max_gap_bound:
                self._max_gap_bound = before
            return
        pos = bisect_left(intervals, item)
        # Overlap with ``(os, of)`` means ``start < of - eps and os < finish
        # - eps``.  Rightwards, starts are non-decreasing, so the scan can
        # stop at the first interval starting at/after ``finish``.
        i = pos
        n = len(intervals)
        while i < n and intervals[i][0] < finish - TIME_EPS:
            if start < intervals[i][1] - TIME_EPS:
                self._raise_overlap(start, finish, job_id, intervals[i])
            i += 1
        # Leftwards, only the nearest non-degenerate interval can overlap:
        # anything before it finishes by that interval's start (pairwise
        # non-overlap), hence before ``start``; degenerate (zero-length)
        # intervals at or before ``start`` can never overlap anything.
        i = pos - 1
        while i >= 0:
            other = intervals[i]
            if other[1] - other[0] <= TIME_EPS:
                i -= 1
                continue
            if start < other[1] - TIME_EPS and other[0] < finish - TIME_EPS:
                self._raise_overlap(start, finish, job_id, other)
            break
        insort(intervals, item)
        insort(self._starts, start)
        if finish > self._max_finish:
            self._max_finish = finish
        pos = bisect_left(intervals, item)
        prefix = self._prefix_finish
        gaps = self._gaps
        starts_list = self._starts
        n_now = len(intervals)
        if pos == n_now - 1:
            prev = prefix[-1] if prefix else float("-inf")
            prefix.append(finish if finish > prev else prev)
            # the region ahead of the appended interval used to be the
            # (untracked) trailing region; it becomes an internal gap now
            if pos > 0 and start - prev > TIME_EPS:
                insort(gaps, (prev, start))
        else:
            # the insertion splits the inter-interval region at ``pos``:
            # drop its directory entry and re-add the surviving pieces
            running = prefix[pos - 1] if pos > 0 else float("-inf")
            old_next_start = starts_list[pos + 1]
            if pos > 0:
                if old_next_start - running > TIME_EPS:
                    old_gap = (running, old_next_start)
                    gi = bisect_left(gaps, old_gap)
                    if gi < len(gaps) and gaps[gi] == old_gap:
                        gaps.pop(gi)
                if start - running > TIME_EPS:
                    insort(gaps, (running, start))
            prefix.insert(pos, 0.0)
            new_running = finish if finish > running else running
            prefix[pos] = new_running
            if old_next_start - new_running > TIME_EPS:
                insort(gaps, (new_running, old_next_start))
            # Downstream, the new prefix is ``max(old prefix, finish)``;
            # the old values are non-decreasing, so the update stops at the
            # first position already at/above ``finish``.  Every raised
            # prefix re-anchors the directory entry of the gap behind it.
            idx = pos + 1
            while idx < n_now:
                old_val = prefix[idx]
                if finish <= old_val:
                    break
                prefix[idx] = finish
                if idx + 1 < n_now:
                    nxt = starts_list[idx + 1]
                    if nxt - old_val > TIME_EPS:
                        old_gap = (old_val, nxt)
                        gi = bisect_left(gaps, old_gap)
                        if gi < len(gaps) and gaps[gi] == old_gap:
                            gaps.pop(gi)
                    if nxt - finish > TIME_EPS:
                        insort(gaps, (finish, nxt))
                idx += 1
        # maintain the conservative gap bound: inserting can only split
        # existing gaps (covered by the old bound) or open a new gap next to
        # the inserted interval; neighbour finishes understate the prefix
        # max by at most the epsilon overlap tolerance, which the filter
        # slack absorbs
        if pos > 0:
            before = start - intervals[pos - 1][1]
            # a fresh internal gap opened in front of the inserted interval
            # ends at its start (the neighbour's finish understates the
            # prefix max by at most the epsilon overlap tolerance, so this
            # only over-triggers — the bound stays an overestimate)
            if before > TIME_EPS and start > self._gap_end_bound:
                self._gap_end_bound = start
        else:
            before = start - self.available_from
        if before > self._max_gap_bound:
            self._max_gap_bound = before
        if pos + 1 < len(intervals):
            after = intervals[pos + 1][0] - finish
            if after > self._max_gap_bound:
                self._max_gap_bound = after
            # the region behind the inserted interval is internal now even
            # if it used to be the (untracked) leading region before the
            # first interval
            if after > TIME_EPS and intervals[pos + 1][0] > self._gap_end_bound:
                self._gap_end_bound = intervals[pos + 1][0]

    def bulk_load(self, intervals: Iterable[Tuple[float, float, str]]) -> None:
        """Install a batch of intervals in one sorted build.

        Replaces ``k`` successive :meth:`occupy` calls (each an O(n) insort)
        with a single O(k log k) sort — the rebuild of pinned work at the
        start of every replan is the dominant timeline cost on large DAGs.
        Only valid on an empty timeline; the batch must be pairwise
        non-overlapping (it comes from an already-validated schedule), which
        a sweep over the sorted order verifies defensively with the same
        overlap predicate as :meth:`occupy`.
        """
        if self._intervals:
            raise ValueError("bulk_load requires an empty timeline")
        items = sorted(
            (float(start), float(finish), job_id) for start, finish, job_id in intervals
        )
        max_finish = float("-inf")
        max_item: Optional[Tuple[float, float, str]] = None
        for item in items:
            start, finish, job_id = item
            if finish < start - TIME_EPS:
                raise ValueError("finish precedes start")
            if (
                max_item is not None
                and start < max_finish - TIME_EPS
                and max_item[0] < finish - TIME_EPS
            ):
                self._raise_overlap(start, finish, job_id, max_item)
            if finish > max_finish:
                max_finish = finish
                max_item = item
        self._intervals = items
        self._starts = [item[0] for item in items]
        if items:
            self._max_finish = max_finish
            gap_bound = items[0][0] - self.available_from
            gap_end = self.available_from
            running = items[0][1]
            prefix = [running]
            gaps: List[Tuple[float, float]] = []
            for start, finish, _ in items[1:]:
                gap = start - running
                if gap > gap_bound:
                    gap_bound = gap
                if gap > TIME_EPS:
                    gaps.append((running, start))
                    if start > gap_end:
                        gap_end = start
                if finish > running:
                    running = finish
                prefix.append(running)
            self._prefix_finish = prefix
            self._gaps = gaps
            self._max_gap_bound = max(0.0, gap_bound)
            self._gap_end_bound = gap_end

    def _install(
        self,
        intervals: List[Tuple[float, float, str]],
        starts: List[float],
        prefix_finish: List[float],
        gaps: List[Tuple[float, float]],
        max_gap_bound: float,
        gap_end_bound: float,
    ) -> None:
        """Adopt ready-made sorted state on an empty timeline, unchecked.

        The caller owns the invariants: the lists must be exactly what
        :meth:`occupy` would have built from the same intervals (see
        :meth:`repro.scheduling.bookings.BookingLane.cut`, which cuts them
        from a booking lane's lists).
        """
        self._intervals = intervals
        self._starts = starts
        self._prefix_finish = prefix_finish
        self._gaps = gaps
        self._max_finish = prefix_finish[-1]
        self._max_gap_bound = max_gap_bound
        self._gap_end_bound = gap_end_bound

    def _raise_overlap(
        self, start: float, finish: float, job_id: str, other: Tuple[float, float, str]
    ) -> None:
        raise ValueError(
            f"interval [{start}, {finish}) of {job_id!r} overlaps "
            f"[{other[0]}, {other[1]}) of {other[2]!r} on "
            f"{self.resource_id!r}"
        )

    def intervals(self) -> List[Tuple[float, float, str]]:
        return list(self._intervals)

    def count_finishing_after(self, time: float) -> int:
        """Number of occupied intervals finishing strictly after ``time``.

        Every interval before the first prefix-maximum finish past
        ``time`` finishes by ``time``, so the count starts there.
        """
        first = bisect_right(self._prefix_finish, time)
        return sum(
            1 for _, finish, _ in islice(self._intervals, first, None) if finish > time
        )

    def ready_time(self) -> float:
        """Earliest time after every occupied interval (``avail[j]`` without insertion)."""
        if not self._intervals:
            return self.available_from
        return max(self.available_from, self._max_finish)

    def earliest_start(
        self, ready: float, duration: float, *, insertion: bool = True
    ) -> float:
        """Earliest start time for a task of ``duration`` ready at ``ready``.

        With ``insertion=True`` (original HEFT policy) idle gaps between
        already-placed tasks are considered; otherwise the task is appended
        after the last occupied interval.
        """
        ready = max(ready, self.available_from)
        if not insertion:
            return max(ready, self.ready_time())
        intervals = self._intervals
        if not intervals or ready >= self._max_finish:
            return ready
        if duration - TIME_EPS > self._max_gap_bound + _GAP_FILTER_SLACK:
            # No internal idle gap can hold this task (the bound only ever
            # overestimates gap sizes, and the filter slack absorbs every
            # float-rounding corner).  The leading region before the first
            # interval is the one candidate not covered by the bound — its
            # usable size depends on ``ready`` — so it is checked exactly.
            # Otherwise the scan below would walk every interval and return
            # ``max(ready, max finish)``: intervals excluded by its bisect
            # prologue all finish at/before ``ready``, so the global cached
            # maximum gives the identical cursor.
            if ready + duration - TIME_EPS <= intervals[0][0]:
                return ready
            return ready if ready > self._max_finish else self._max_finish
        if duration - TIME_EPS > TIME_EPS + _GAP_FILTER_SLACK:
            # A task longer than the epsilon tolerance can only start in the
            # leading region before the first interval, inside one of the
            # tracked internal gaps, or after every interval — positions
            # whose gap is at most ``TIME_EPS`` would need ``duration <=
            # 2·TIME_EPS``, excluded by the guard.
            #
            # Leading region: acceptance there implies ``ready`` precedes
            # the first start, so the reference scan would test position 0
            # with cursor ``ready`` and agree exactly.
            if ready + duration - TIME_EPS <= intervals[0][0]:
                return ready
            if ready >= self._gap_end_bound:
                # every tracked gap ends at/before ``ready`` — accepting one
                # would again need a sub-epsilon task; only the tail remains
                return ready if ready > self._max_finish else self._max_finish
            # Directory scan.  Each entry carries ``lo`` = the prefix
            # maximum of every finish before the gap, which equals the
            # reference scan's running cursor at that position (intervals
            # its prologue skips all finish at/before ``ready`` and cannot
            # raise the cursor past it).  Entries are ordered by position,
            # so the first acceptance is the reference's first acceptance,
            # through the same float expression as :meth:`occupy`'s overlap
            # predicate.  Gaps ending at/before ``ready`` cannot accept a
            # guarded task, so start at the bisect position — stepping back
            # once for a gap still open across ``ready`` (two such
            # straddling gaps would be separated by sub-epsilon intervals,
            # leaving the earlier one too small for a guarded task).
            gaps = self._gaps
            g = bisect_left(gaps, (ready,))
            if g and gaps[g - 1][1] > ready:
                g -= 1
            n_gaps = len(gaps)
            while g < n_gaps:
                lo, hi = gaps[g]
                cursor = ready if ready > lo else lo
                if cursor + duration - TIME_EPS <= hi:
                    return cursor
                g += 1
            return ready if ready > self._max_finish else self._max_finish
        if duration <= TIME_EPS:
            # A (near-)zero-length task can slot against any interval
            # boundary, including ones entirely before ``ready`` — scan all
            # gaps like the reference implementation.
            first = 0
        else:
            # Intervals finishing at/before ``ready`` neither move the
            # cursor nor open a usable gap (that would need ``ready +
            # duration - eps <= start`` with ``start <= ready``), so the
            # scan starts at the bisect position, stepping back over any
            # interval still in flight at ``ready``.
            first = bisect_left(self._starts, ready)
            i = first - 1
            while i >= 0:
                other = intervals[i]
                if other[1] > ready:
                    first = i
                elif other[1] - other[0] > TIME_EPS:
                    break
                i -= 1
        # Jump scan.  The acceptance test is the exact negation of the
        # overlap predicate in :meth:`occupy` (``interval_start <
        # candidate_finish - eps``), evaluated through the same float
        # expression so the two can never disagree.  Because the cursor only
        # ever grows, a whole run of intervals starting before ``cursor +
        # duration - eps`` fails that test one after the other — so instead
        # of walking them, bisect directly to the first interval at/past the
        # threshold and absorb the skipped run's finishes into the cursor
        # via the prefix maximum.  The prefix max over ``[0..j-1]`` equals
        # the reference scan's running cursor max exactly: every interval
        # the prologue excluded finishes at/before ``ready`` and cannot
        # raise it.
        starts = self._starts
        prefix = self._prefix_finish
        n = len(intervals)
        cursor = ready
        i = first
        while i < n:
            if cursor + duration - TIME_EPS <= starts[i]:
                return cursor
            i = bisect_left(starts, cursor + duration - TIME_EPS, i + 1, n)
            running = prefix[i - 1]
            if running > cursor:
                cursor = running
        return cursor

    def utilisation(self, horizon: float) -> float:
        """Fraction of ``[available_from, horizon)`` that is occupied."""
        window = horizon - self.available_from
        if window <= 0:
            return 0.0
        busy = sum(
            max(0.0, min(finish, horizon) - max(start, self.available_from))
            for start, finish, _ in self._intervals
        )
        return busy / window


class Schedule:
    """A complete or partial mapping of workflow jobs onto resources.

    Besides the *primary* assignment per job, a schedule may carry
    **duplicates**: redundant executions of a job on additional resources,
    produced by duplication-based heuristics (HEFT with task duplication).
    A duplicate re-runs an already-mapped job closer to a consumer so the
    consumer can start from the local copy instead of waiting for the
    transfer from the primary site.  Duplicates occupy processor time (the
    no-overlap invariant covers them) and act as extra data sources for the
    precedence invariant, but the job's status, finish time and makespan
    contribution always come from the primary assignment.
    """

    def __init__(self, *, name: str = "schedule") -> None:
        self.name = name
        self._assignments: Dict[str, Assignment] = {}
        self._duplicates: List[Assignment] = []
        #: cached ``max finish`` (None = unknown); the adaptive loop queries
        #: the makespan several times per trigger, so keep it O(1)
        self._makespan_cache: Optional[float] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, assignment: Assignment) -> None:
        """Add or replace the assignment of a job."""
        if assignment.job_id in self._assignments:
            # replacing may *lower* the max finish; recompute lazily
            self._makespan_cache = None
        elif (
            self._makespan_cache is not None
            and assignment.finish > self._makespan_cache
        ):
            self._makespan_cache = assignment.finish
        self._assignments[assignment.job_id] = assignment

    def extend(self, assignments: Iterable[Assignment]) -> None:
        for assignment in assignments:
            self.add(assignment)

    @classmethod
    def of(
        cls,
        assignments: Iterable[Assignment],
        *,
        name: str = "schedule",
        duplicates: Iterable[Assignment] = (),
    ) -> "Schedule":
        """A schedule holding ``assignments`` (in order) and ``duplicates``:
        the same schedule as :meth:`add`-ing them one by one, built in bulk."""
        out = cls(name=name)
        out._assignments = {a.job_id: a for a in assignments}
        out._duplicates = list(duplicates)
        return out

    def add_duplicate(self, assignment: Assignment) -> None:
        """Record a redundant copy of an already-known job."""
        self._duplicates.append(assignment)

    def copy(self, *, name: Optional[str] = None) -> "Schedule":
        out = Schedule(name=name or self.name)
        out._assignments = dict(self._assignments)
        out._duplicates = list(self._duplicates)
        out._makespan_cache = self._makespan_cache
        return out

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, job_id: str) -> bool:
        return job_id in self._assignments

    def __len__(self) -> int:
        return len(self._assignments)

    def __iter__(self):
        return iter(self._assignments.values())

    def assignment(self, job_id: str) -> Assignment:
        return self._assignments[job_id]

    def get(self, job_id: str) -> Optional[Assignment]:
        return self._assignments.get(job_id)

    def assignments_for(self, job_ids: Iterable[str]) -> List[Optional[Assignment]]:
        """``[get(job) for job in job_ids]``, in one pass."""
        return list(map(self._assignments.get, job_ids))

    def jobs(self) -> List[str]:
        return list(self._assignments.keys())

    def resources_used(self) -> List[str]:
        return sorted({a.resource_id for a in self._assignments.values()})

    def resource_of(self, job_id: str) -> str:
        return self._assignments[job_id].resource_id

    def scheduled_finish_time(self, job_id: str) -> float:
        """SFT(n_i): the scheduled finish time of a mapped job."""
        return self._assignments[job_id].finish

    def scheduled_start_time(self, job_id: str) -> float:
        return self._assignments[job_id].start

    def makespan(self) -> float:
        """``max SFT(n_exit)`` — with no exit info, the max finish overall.

        The maximum over *all* jobs equals the maximum over exit jobs because
        every non-exit job finishes before its successors do.
        """
        if not self._assignments:
            return 0.0
        if self._makespan_cache is None:
            self._makespan_cache = max(a.finish for a in self._assignments.values())
        return self._makespan_cache

    def assignments_on(self, resource_id: str) -> List[Assignment]:
        """Assignments placed on ``resource_id`` sorted by start time."""
        out = [a for a in self._assignments.values() if a.resource_id == resource_id]
        out.sort(key=lambda a: (a.start, a.finish, a.job_id))
        return out

    @property
    def duplicates(self) -> List[Assignment]:
        """Redundant copies recorded by duplication-based heuristics."""
        return list(self._duplicates)

    def duplicates_of(self, job_id: str) -> List[Assignment]:
        return [a for a in self._duplicates if a.job_id == job_id]

    def copies_of(self, job_id: str) -> List[Assignment]:
        """Every execution of a job: the primary copy plus any duplicates."""
        out: List[Assignment] = []
        primary = self._assignments.get(job_id)
        if primary is not None:
            out.append(primary)
        out.extend(self.duplicates_of(job_id))
        return out

    def all_assignments(self) -> List[Assignment]:
        """Primary assignments and duplicates — everything occupying time."""
        return list(self._assignments.values()) + list(self._duplicates)

    def timelines(
        self, resources: Optional[Sequence[str]] = None, *, available_from: Optional[Mapping[str, float]] = None
    ) -> Dict[str, ResourceTimeline]:
        """Per-resource timelines of this schedule's assignments."""
        resource_ids = list(resources) if resources is not None else self.resources_used()
        timelines: Dict[str, ResourceTimeline] = {}
        for rid in resource_ids:
            start = 0.0 if available_from is None else float(available_from.get(rid, 0.0))
            timelines[rid] = ResourceTimeline(rid, available_from=start)
        grouped: Dict[str, List[Tuple[float, float, str]]] = {}
        for assignment in self._assignments.values():
            grouped.setdefault(assignment.resource_id, []).append(
                (assignment.start, assignment.finish, assignment.job_id)
            )
        for rid, items in grouped.items():
            if rid not in timelines:
                timelines[rid] = ResourceTimeline(rid)
            timelines[rid].bulk_load(items)
        return timelines

    def gantt_rows(self) -> List[Tuple[str, str, float, float]]:
        """``(resource, job, start, finish)`` rows sorted for display."""
        rows = [
            (a.resource_id, a.job_id, a.start, a.finish)
            for a in self._assignments.values()
        ]
        rows.sort(key=lambda row: (row[0], row[2], row[1]))
        return rows

    def to_dict(self) -> Dict[str, Dict[str, float | str]]:
        """JSON-friendly rendering keyed by job id (primary copies only)."""
        return {
            job_id: {
                "resource": a.resource_id,
                "start": a.start,
                "finish": a.finish,
            }
            for job_id, a in sorted(self._assignments.items())
        }

    def duplicates_to_dict(self) -> List[List[object]]:
        """JSON-friendly rendering of the duplicate copies, sorted."""
        return sorted(
            [a.job_id, a.resource_id, a.start, a.finish] for a in self._duplicates
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schedule(name={self.name!r}, jobs={len(self)}, makespan={self.makespan():.2f})"


class JobStatus(enum.Enum):
    """Run-time status of a job at a given clock value."""

    NOT_STARTED = "not_started"
    RUNNING = "running"
    FINISHED = "finished"


#: status codes of the dense fact view (:meth:`ExecutionState.started_facts`);
#: ``0`` is not started
FACT_RUNNING = 1
FACT_FINISHED = 2


@dataclass
class ExecutionState:
    """Snapshot of a partially executed workflow at time ``clock``.

    Attributes
    ----------
    clock:
        The logical time of the snapshot (the ``clock`` of paper Eq. 1–3).
    status:
        Per-job :class:`JobStatus`.
    actual_start:
        AST(n_i) for jobs that started.
    actual_finish:
        AFT(n_i) for jobs that finished.
    executed_on:
        Resource each started job executes/executed on.
    data_arrivals:
        ``(producer_job, resource_id) -> time`` at which the producer's
        output is (or will be, for in-flight transfers) available on the
        resource.  Outputs are always available on the resource the producer
        ran on from AFT onwards; additional entries record transfers already
        initiated by the Executor under the previous schedule.

    The same facts are also readable per dense job id of a workflow's
    ``structure()`` (:meth:`started_facts`), which the replanning passes
    use instead of asking :meth:`job_status` job by job.
    """

    clock: float = 0.0
    status: Dict[str, JobStatus] = field(default_factory=dict)
    actual_start: Dict[str, float] = field(default_factory=dict)
    actual_finish: Dict[str, float] = field(default_factory=dict)
    executed_on: Dict[str, str] = field(default_factory=dict)
    data_arrivals: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: ``(structure, codes, finished)`` of :meth:`started_facts`, once built
    _dense: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, jobs: Iterable[str]) -> "ExecutionState":
        """The pristine state: nothing started, clock at zero."""
        return cls(clock=0.0, status={job: JobStatus.NOT_STARTED for job in jobs})

    @classmethod
    def from_schedule(
        cls, schedule: Schedule, clock: float, *, jobs: Optional[Iterable[str]] = None
    ) -> "ExecutionState":
        """Derive the state of executing ``schedule`` accurately up to ``clock``.

        Under the paper's accuracy assumption (§4.1) a job scheduled for
        ``[start, finish)`` has actually started/finished exactly then, so
        the snapshot can be read off the schedule: finished if
        ``finish <= clock``, running if ``start <= clock < finish``.  The
        only data arrivals recorded are each finished job's output on its
        own resource, from its finish on; transfers to successors are left
        to the scheduler's communication costs.  With ``jobs`` given,
        ``schedule`` may be any ``job -> Assignment`` mapping (the adaptive
        loop passes its observed ground truth).
        """
        job_ids = list(jobs) if jobs is not None else schedule.jobs()
        state = cls(clock=float(clock))
        for job_id in job_ids:
            assignment = schedule.get(job_id)
            if assignment is None or assignment.start > clock + TIME_EPS:
                state.status[job_id] = JobStatus.NOT_STARTED
                continue
            state.executed_on[job_id] = assignment.resource_id
            state.actual_start[job_id] = assignment.start
            if assignment.finish <= clock + TIME_EPS:
                state.status[job_id] = JobStatus.FINISHED
                state.actual_finish[job_id] = assignment.finish
                state.data_arrivals[(job_id, assignment.resource_id)] = assignment.finish
            else:
                state.status[job_id] = JobStatus.RUNNING
        return state

    @classmethod
    def from_facts(
        cls, structure, codes: bytearray, facts: Sequence[Optional[Assignment]], clock: float
    ) -> "ExecutionState":
        """The state a run's dense facts describe at ``clock``.

        ``codes[i]`` is the status code of ``structure.jobs[i]`` (``0``,
        :data:`FACT_RUNNING` or :data:`FACT_FINISHED`) and ``facts[i]`` the
        execution of a started job; a running job's finish is not read.
        Equal to :meth:`from_schedule` over the started executions; its
        :meth:`started_facts` view is a copy of ``codes`` and the finished
        ``facts``, so no dict is walked to build it.
        """
        jobs = structure.jobs
        state = cls(clock=float(clock), status=dict.fromkeys(jobs, JobStatus.NOT_STARTED))
        status = state.status
        executed_on = state.executed_on
        actual_start = state.actual_start
        actual_finish = state.actual_finish
        data_arrivals = state.data_arrivals
        finished: List[Optional[Assignment]] = [None] * len(jobs)
        for i, code in enumerate(codes):
            if not code:
                continue
            assignment = facts[i]
            job = jobs[i]
            rid = assignment.resource_id
            executed_on[job] = rid
            actual_start[job] = assignment.start
            if code == FACT_FINISHED:
                status[job] = JobStatus.FINISHED
                actual_finish[job] = assignment.finish
                data_arrivals[(job, rid)] = assignment.finish
                finished[i] = assignment
            else:
                status[job] = JobStatus.RUNNING
        state._dense = (structure, bytearray(codes), finished)
        return state

    def started_facts(self, structure) -> Tuple[bytearray, List[Optional[Assignment]]]:
        """The started jobs per dense id of ``structure`` (a workflow's
        :class:`~repro.workflow.dag.WorkflowIndex`).

        Returns ``(codes, finished)``: ``codes[i]`` is ``0`` (not
        started), :data:`FACT_RUNNING` or :data:`FACT_FINISHED`, and
        ``finished[i]`` the executed :class:`Assignment` of a finished job
        (``None`` otherwise).  A running job's resource and start are
        :attr:`executed_on`/:attr:`actual_start`.  Built once per state
        (in :meth:`from_facts`, or here from the dicts) and kept in step by
        the mutators.
        """
        dense = self._dense
        if dense is None or dense[0] is not structure:
            jobs = structure.jobs
            codes = bytearray(len(jobs))
            finished: List[Optional[Assignment]] = [None] * len(jobs)
            status = self.status
            for i, job in enumerate(jobs):
                job_status = status.get(job)
                if job_status is JobStatus.FINISHED:
                    codes[i] = FACT_FINISHED
                    finished[i] = Assignment(
                        job, self.executed_on[job], self.actual_start[job], self.actual_finish[job]
                    )
                elif job_status is JobStatus.RUNNING:
                    codes[i] = FACT_RUNNING
            dense = self._dense = (structure, codes, finished)
        return dense[1], dense[2]

    def restart(self, job_id: str) -> Tuple[str, float]:
        """Return a running job to not started (its execution was lost);
        returns the ``(resource, start)`` it had."""
        start = self.actual_start.pop(job_id)
        resource = self.executed_on.pop(job_id)
        self.status[job_id] = JobStatus.NOT_STARTED
        if self._dense is not None:
            self._dense[1][self._dense[0].index[job_id]] = 0
        return resource, start

    # ------------------------------------------------------------------
    def job_status(self, job_id: str) -> JobStatus:
        return self.status.get(job_id, JobStatus.NOT_STARTED)

    def is_finished(self, job_id: str) -> bool:
        return self.job_status(job_id) is JobStatus.FINISHED

    def is_running(self, job_id: str) -> bool:
        return self.job_status(job_id) is JobStatus.RUNNING

    def is_not_started(self, job_id: str) -> bool:
        return self.job_status(job_id) is JobStatus.NOT_STARTED

    def finished_jobs(self) -> List[str]:
        return [j for j, s in self.status.items() if s is JobStatus.FINISHED]

    def running_jobs(self) -> List[str]:
        return [j for j, s in self.status.items() if s is JobStatus.RUNNING]

    def unfinished_jobs(self) -> List[str]:
        return [j for j, s in self.status.items() if s is not JobStatus.FINISHED]

    def not_started_jobs(self) -> List[str]:
        return [j for j, s in self.status.items() if s is JobStatus.NOT_STARTED]

    def all_finished(self) -> bool:
        return bool(self.status) and all(
            s is JobStatus.FINISHED for s in self.status.values()
        )

    def record_start(self, job_id: str, resource_id: str, time: float) -> None:
        self._dense = None
        self.status[job_id] = JobStatus.RUNNING
        self.actual_start[job_id] = time
        self.executed_on[job_id] = resource_id

    def record_finish(self, job_id: str, time: float) -> None:
        if self.job_status(job_id) is not JobStatus.RUNNING:
            raise ValueError(f"job {job_id!r} cannot finish: it is not running")
        self._dense = None
        self.status[job_id] = JobStatus.FINISHED
        self.actual_finish[job_id] = time
        self.data_arrivals[(job_id, self.executed_on[job_id])] = time

    def record_data_arrival(self, producer: str, resource_id: str, time: float) -> None:
        key = (producer, resource_id)
        current = self.data_arrivals.get(key)
        if current is None or time < current:
            self.data_arrivals[key] = time

    def data_available_at(self, producer: str, resource_id: str) -> Optional[float]:
        """Time the producer's output is available on ``resource_id`` (or None)."""
        return self.data_arrivals.get((producer, resource_id))
