"""The shared grid's booking directory: every tenant's bookings, per resource.

On a shared grid each planning pass must see every *other* workflow's
bookings as busy blocks, and admission control must measure how much of
the near-term capacity they already hold.  Rebuilding that picture on
every offer — walk every admitted schedule, sort and merge the spans per
resource, book them into fresh timelines — costs more than the placement
it feeds.  :class:`BookingDirectory` keeps it live instead:

* one frozen :class:`BookingLane` per resource holds the bookings of every
  registered workflow, sorted, with their overlap-merged groups already
  laid out as the lists a :class:`~repro.scheduling.base.ResourceTimeline`
  keeps (interval, start, prefix-finish and gap lists, plus the suffix
  maxima its bounds need) and their touch-merged groups;
* the directory changes only through :meth:`~BookingDirectory.book`
  (registration, and re-booking after a grid event's repair or
  adoption), :meth:`~BookingDirectory.release` (completion, or a workflow
  about to replan) and the prune inside :meth:`~BookingDirectory.view`
  (workflows finished by the clock, spans ended by it).  A change
  replaces the touched lanes; nothing edits a lane, so a
  :class:`BusyView` handed out earlier stays a valid snapshot;
* :meth:`BusyView.timeline` cuts a planning frame's foreign timeline from a
  lane with a few list slices from the first booking that finishes after
  ``max(clock, join time)``, and :meth:`BusyView.saturation` walks only the
  touch groups inside the admission window.

Both reads reproduce the merge rules of the code they replace exactly (the
frozen walk-sort-merge versions live in ``benchmarks/_seed_reference.py``
and ``tests/test_busy_directory.py`` holds the differential):

* a planning frame merges spans that *overlap* by more than ``TIME_EPS``
  (``start < last_finish - TIME_EPS``) and ignores spans of at most
  ``TIME_EPS`` and spans ending at or before the timeline's
  ``available_from`` — :func:`occupy_busy_intervals`;
* saturation merges spans that *touch* within ``TIME_EPS`` (``start <=
  last_finish + TIME_EPS``), zero-length ones included, and sums the
  clipped groups resource by resource in the order the resources first
  appear in the workflows' bookings (admission order, then each
  schedule's ``all_assignments`` order).

A span counts as live at ``clock`` while ``finish - TIME_EPS > clock``
and its workflow is not finished by ``clock`` (``clock >= makespan -
TIME_EPS``, the rule of
:meth:`~repro.core.multi_tenant.ActiveWorkflow.finished_by`); duplicate
copies finishing after their workflow's makespan therefore vanish with it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.scheduling.base import Assignment, ResourceTimeline, Schedule, TIME_EPS

__all__ = [
    "BookingDirectory",
    "BookingLane",
    "BusyIntervals",
    "BusyView",
    "foreign_timelines",
    "occupy_busy_intervals",
]

_NEG_INF = float("-inf")
#: job id of every foreign interval on a planning timeline
BUSY_LABEL = "<busy>"

#: type of the ``busy`` parameter: foreign (other-workflow) occupied spans
#: per resource, ``{resource_id: [(start, finish), ...]}`` — a plain mapping
#: or a :class:`BusyView`
BusyIntervals = Mapping[str, Sequence[tuple]]

#: one booking: ``(start, finish, order, owner)``; ``order`` is the
#: ``(admission rank, position in all_assignments)`` pair that fixes the
#: order a resource first appears in
_Span = Tuple[float, float, Tuple[int, int], Optional[str]]


def occupy_busy_intervals(
    timelines: Mapping[str, ResourceTimeline], busy: Optional[BusyIntervals]
) -> None:
    """Book foreign ``(start, finish)`` spans by sorting and merging them.

    The path of :meth:`BusyView.timeline` for a resource that also
    carries a planning frame's own pinned work, merged together with the
    foreign spans in one pass.  Spans may overlap
    each other (plans repaired independently after a performance change
    can transiently contend), so they are merged per resource before
    occupying; spans that end at or before a timeline's
    ``available_from`` (or have no extent) cannot constrain placement and
    are skipped.  Resources absent from ``timelines`` are ignored — a
    departed resource's stale bookings are irrelevant to the surviving
    pool.
    """
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
        for start, finish in merged:
            timeline.occupy(start, finish, BUSY_LABEL)


class BookingLane:
    """One resource's bookings, frozen, with their merged groups laid out.

    ``spans`` holds every booking sorted by ``(start, finish)``.  Two
    groupings of them are precomputed, one per merge rule:

    * *planning groups*: the spans longer than ``TIME_EPS`` merged by
      overlap (``start < group_finish - TIME_EPS``); a timeline booked
      from them group by group keeps exactly the lists stored here, so a
      cut (:meth:`cut`) is a handful of slices;
    * *touch groups*: every span merged by touch (``start <= group_finish
      + TIME_EPS``), whose clipped lengths :meth:`add_booked` sums.

    Each group records the index of its first member in ``spans``; the
    members of a group are the spans up to the next group's first one
    (for planning groups, the ones longer than ``TIME_EPS``).
    """

    __slots__ = (
        "spans",
        "_finish_live",
        "_first_order",
        "_starts",
        "_intervals",
        "_prefix",
        "_group_live",
        "_group_first",
        "_gaps",
        "_before_max_from",
        "_last_wide",
        "_touch_starts",
        "_touch_finishes",
        "_touch_live",
        "_touch_first",
    )

    def __init__(self, spans: List[_Span]) -> None:
        spans.sort()
        self.spans = spans
        # the first appearance of the resource: liveness is monotone in
        # the finish, so the live spans' smallest ``order`` is a suffix
        # minimum over finish order
        by_finish = sorted([(span[1] - TIME_EPS, span[2]) for span in spans])
        self._finish_live = [live for live, _ in by_finish]
        first_order = [order for _, order in by_finish]
        for i in range(len(first_order) - 2, -1, -1):
            if first_order[i + 1] < first_order[i]:
                first_order[i] = first_order[i + 1]
        self._first_order = first_order

        starts: List[float] = []
        finishes: List[float] = []
        group_first: List[int] = []
        touch_starts: List[float] = []
        touch_finishes: List[float] = []
        touch_first: List[int] = []
        for index, span in enumerate(spans):
            start, finish = span[0], span[1]
            if touch_starts and start <= touch_finishes[-1] + TIME_EPS:
                if finish > touch_finishes[-1]:
                    touch_finishes[-1] = finish
            else:
                touch_starts.append(start)
                touch_finishes.append(finish)
                touch_first.append(index)
            if not finish - start > TIME_EPS:
                continue
            if starts and start < finishes[-1] - TIME_EPS:
                if finish > finishes[-1]:
                    finishes[-1] = finish
            else:
                starts.append(start)
                finishes.append(finish)
                group_first.append(index)
        n = len(starts)
        group_first.append(len(spans))
        touch_first.append(len(spans))
        # a group's members finish at or after the previous group's finish
        # (see :meth:`cut`), so group finishes never decrease and are
        # their own prefix maxima
        gaps: List[Tuple[float, float]] = []
        #: ``start - previous group's finish``: the gap :meth:`occupy` measures
        before: List[float] = [_NEG_INF] * (n + 1)
        last_wide = -1
        for g in range(1, n):
            gap = starts[g] - finishes[g - 1]
            before[g] = gap
            if gap > TIME_EPS:
                gaps.append((finishes[g - 1], starts[g]))
                last_wide = g
        for g in range(n - 1, 0, -1):
            if before[g + 1] > before[g]:
                before[g] = before[g + 1]
        self._starts = starts
        self._intervals = [
            (start, finish, BUSY_LABEL) for start, finish in zip(starts, finishes)
        ]
        self._prefix = finishes
        self._group_live = [finish - TIME_EPS for finish in finishes]
        self._group_first = group_first
        self._gaps = gaps
        #: suffix maxima of ``before``, one sentinel past the end
        self._before_max_from = before
        self._last_wide = last_wide
        self._touch_starts = touch_starts
        self._touch_finishes = touch_finishes
        self._touch_live = [finish - TIME_EPS for finish in touch_finishes]
        self._touch_first = touch_first

    # ------------------------------------------------------------------
    def first_order(self, clock: float):
        """Smallest ``order`` among the spans live at ``clock`` (``None``: none)."""
        i = bisect_right(self._finish_live, clock)
        return self._first_order[i] if i < len(self._first_order) else None

    def live_spans(self, clock: float) -> List[Tuple[float, float]]:
        """``(start, finish)`` of the spans live at ``clock``, in ``order``."""
        return [
            (span[0], span[1])
            for span in sorted(self.spans, key=lambda span: span[2])
            if span[1] - TIME_EPS > clock
        ]

    def cut(self, rid: str, available_from: float, clock: float) -> ResourceTimeline:
        """The planning timeline of this lane's spans live at ``clock``.

        Equal, list for list, to a fresh ``ResourceTimeline(rid,
        available_from=available_from)`` booked by
        :func:`occupy_busy_intervals` with the same spans.  A span survives
        that filter when it finishes after ``available_from`` and is live
        at ``clock`` — both monotone in the finish — so the filter drops
        the whole groups before the first group ``k`` whose finish
        survives, and may raise group ``k``'s start to its first surviving
        member.  Nothing after group ``k`` is dropped: a group opens at a
        start ``s >= fl(F - TIME_EPS)`` of the previous group's finish
        ``F``, and each of its members has ``finish - start > TIME_EPS``,
        hence (times being non-negative) finishes at or after ``F``.

        Booking the merged groups in order appends each at the tail of the
        timeline (two groups may open at the same start when a member is
        within an ulp of ``TIME_EPS`` long; :meth:`ResourceTimeline.occupy`
        then inserts it at the end by its general path, with the same
        updates), so the lists are slices of the lane's and the bounds are
        the lead gap plus the lane's suffix maxima.
        """
        timeline = ResourceTimeline(rid, available_from=available_from)
        prefix = self._prefix
        n = len(prefix)
        k = bisect_right(prefix, available_from)
        live_from = bisect_right(self._group_live, clock)
        if live_from > k:
            k = live_from
        if k >= n:
            return timeline
        intervals = self._intervals[k:]
        starts = self._starts[k:]
        spans = self.spans
        for i in range(self._group_first[k], self._group_first[k + 1]):
            start, finish = spans[i][0], spans[i][1]
            if finish - start > TIME_EPS and (
                finish > available_from and finish - TIME_EPS > clock
            ):
                if start != starts[0]:
                    intervals[0] = (start, intervals[0][1], BUSY_LABEL)
                    starts[0] = start
                break
        gaps = self._gaps
        gaps = gaps[bisect_left(gaps, (prefix[k],)) :]
        # the bounds :meth:`ResourceTimeline.occupy` accumulates: the lead
        # gap in front of the first group, then every later group's gap
        max_gap_bound = 0.0
        lead = starts[0] - available_from
        if lead > max_gap_bound:
            max_gap_bound = lead
        tail_gap = self._before_max_from[k + 1]
        if tail_gap > max_gap_bound:
            max_gap_bound = tail_gap
        gap_end_bound = available_from
        wide = self._last_wide
        if wide > k and self._starts[wide] > gap_end_bound:
            gap_end_bound = self._starts[wide]
        timeline._install(
            intervals, starts, prefix[k:], gaps, max_gap_bound, gap_end_bound
        )
        return timeline

    def add_booked(
        self, booked: float, live_clock: float, clock: float, horizon: float
    ) -> float:
        """Add the clipped lengths of the live touch groups to ``booked``.

        Groups are the touch-merged spans live at ``live_clock``, clipped
        to ``[clock, horizon]`` and added one by one in start order.  As
        in :meth:`cut`, liveness drops whole groups before the first live
        one and may raise that group's start to its first live member (a
        later group opens past ``fl(F + TIME_EPS)`` of the previous finish
        ``F``, so all its members finish after ``F``); groups opening at
        or after ``horizon`` add nothing, so the walk stops there.
        """
        finishes = self._touch_finishes
        n = len(finishes)
        g = bisect_right(self._touch_live, live_clock)
        if g >= n:
            return booked
        starts = self._touch_starts
        start = starts[g]
        spans = self.spans
        for i in range(self._touch_first[g], self._touch_first[g + 1]):
            if spans[i][1] - TIME_EPS > live_clock:
                start = spans[i][0]
                break
        while start < horizon:
            booked += max(0.0, min(finishes[g], horizon) - max(start, clock))
            g += 1
            if g == n:
                break
            start = starts[g]
        return booked


class BusyView(Mapping):
    """The foreign bookings live at one clock: ``{resource_id: [(start, finish)]}``.

    A read-only snapshot of :class:`BookingLane` objects.  As a mapping it
    lists, per resource, the live spans in booking order, resources in the
    order they first appear — the shape of a walk over every admitted
    schedule; planning and admission read the lanes directly through
    :meth:`timeline` and :meth:`saturation`.
    """

    def __init__(self, lanes: Dict[str, BookingLane], clock: float) -> None:
        self._lanes = lanes
        #: the liveness clock (``-inf`` for a view of plain spans)
        self.clock = clock
        self._order: Optional[List[str]] = None

    @classmethod
    def from_spans(cls, busy: BusyIntervals) -> "BusyView":
        """A view of plain spans, every one live; resources in ``busy``'s order."""
        lanes: Dict[str, BookingLane] = {}
        for rank, (rid, spans) in enumerate(busy.items()):
            if spans:
                lanes[rid] = BookingLane(
                    [
                        (float(span[0]), float(span[1]), (rank, pos), None)
                        for pos, span in enumerate(spans)
                    ]
                )
        return cls(lanes, _NEG_INF)

    def __repr__(self) -> str:
        return f"BusyView({dict(self.items())!r})"

    def _resources(self) -> List[str]:
        if self._order is None:
            firsts = []
            for rid, lane in self._lanes.items():
                order = lane.first_order(self.clock)
                if order is not None:
                    firsts.append((order, rid))
            firsts.sort()
            self._order = [rid for _, rid in firsts]
        return self._order

    def __iter__(self) -> Iterator[str]:
        return iter(self._resources())

    def __len__(self) -> int:
        return len(self._resources())

    def __getitem__(self, rid: str) -> List[Tuple[float, float]]:
        lane = self._lanes.get(rid)
        spans = lane.live_spans(self.clock) if lane is not None else []
        if not spans:
            raise KeyError(rid)
        return spans

    def timeline(
        self,
        rid: str,
        available_from: float,
        own: Optional[List[Tuple[float, float]]] = None,
    ) -> ResourceTimeline:
        """A planning timeline of ``rid`` carrying the live foreign spans.

        ``own`` spans (a planning frame's pinned work on ``rid``) are merged
        together with the foreign ones, as one booking pass.
        """
        lane = self._lanes.get(rid)
        if own is None:
            if lane is None:
                return ResourceTimeline(rid, available_from=available_from)
            return lane.cut(rid, available_from, self.clock)
        timeline = ResourceTimeline(rid, available_from=available_from)
        spans: List[tuple] = list(own)
        if lane is not None:
            spans.extend(
                span for span in lane.spans if span[1] - TIME_EPS > self.clock
            )
        occupy_busy_intervals({rid: timeline}, {rid: spans})
        return timeline

    def saturation(self, resource_count: int, clock: float, window: float) -> float:
        """Booked fraction of ``resource_count`` resources over ``[clock, clock+window]``.

        See :func:`repro.core.admission.predicted_saturation`.
        """
        if resource_count <= 0 or window <= TIME_EPS:
            return 0.0
        horizon = clock + window
        booked = 0.0
        lanes = self._lanes
        for rid in self._resources():
            booked = lanes[rid].add_booked(booked, self.clock, clock, horizon)
        return min(1.0, booked / (resource_count * window))


def as_busy_view(busy: BusyIntervals) -> BusyView:
    """``busy`` itself when it is a :class:`BusyView`, else a view of its spans."""
    return busy if isinstance(busy, BusyView) else BusyView.from_spans(busy)


def foreign_timelines(
    busy: BusyIntervals,
    available_from: Mapping[str, float],
    pinned: Iterable[Assignment],
) -> Dict[str, ResourceTimeline]:
    """Planning timelines carrying the foreign ``busy`` spans and ``pinned`` work.

    One timeline per ``available_from`` key, in its order.  A resource
    without pinned work gets a lane cut; one with pinned work books the
    pinned spans merged with the foreign ones (independently repaired
    plans can transiently overlap after a performance change).
    """
    view = as_busy_view(busy)
    own: Dict[str, List[Tuple[float, float]]] = {}
    for assignment in pinned:
        own.setdefault(assignment.resource_id, []).append(
            (assignment.start, assignment.finish)
        )
    return {
        rid: view.timeline(rid, start, own.get(rid))
        for rid, start in available_from.items()
    }


class BookingDirectory:
    """Every registered workflow's live bookings, one :class:`BookingLane` per resource.

    Queries must not go back in time: :meth:`view` prunes what ended by its
    clock, and a later view at an earlier clock raises ``ValueError``.
    """

    def __init__(self) -> None:
        #: per resource, the bookings its next lane is built from
        self._spans: Dict[str, List[_Span]] = {}
        self._lanes: Dict[str, BookingLane] = {}
        self._dirty: Set[str] = set()
        #: booked workflow -> (booking version, {resource: its latest
        #: finish there})
        self._booked: Dict[str, Tuple[int, Dict[str, float]]] = {}
        #: first-booking rank per workflow (admission order); kept across
        #: release and re-booking
        self._rank: Dict[str, int] = {}
        #: min-heap of ``(makespan, version, key)``: when a booking finishes
        self._due: List[Tuple[float, int, str]] = []
        self._version = 0
        self._clock = _NEG_INF

    def book(self, key: str, schedule: Schedule, clock: float) -> None:
        """Book ``schedule`` for workflow ``key`` (replacing its bookings)."""
        self.release(key)
        rank = self._rank.setdefault(key, len(self._rank))
        rids: Dict[str, float] = {}
        for pos, assignment in enumerate(schedule.all_assignments()):
            finish = assignment.finish
            if finish - TIME_EPS <= clock:
                continue
            rid = assignment.resource_id
            self._spans.setdefault(rid, []).append(
                (assignment.start, finish, (rank, pos), key)
            )
            if finish > rids.get(rid, _NEG_INF):
                rids[rid] = finish
        self._version += 1
        self._booked[key] = (self._version, rids)
        self._dirty.update(rids)
        heappush(self._due, (schedule.makespan(), self._version, key))

    def release(self, key: str) -> None:
        """Drop workflow ``key``'s bookings (a no-op when it holds none).

        Bookings already ended by the last view's clock are invisible to
        every later view, so they stay until their lane's next rebuild
        drops them; a workflow released on completion usually touches no
        lane at all.
        """
        entry = self._booked.pop(key, None)
        if entry is None:
            return
        for rid, latest in entry[1].items():
            spans = self._spans.get(rid)
            if spans is not None and latest - TIME_EPS > self._clock:
                self._spans[rid] = [span for span in spans if span[3] != key]
                self._dirty.add(rid)

    def view(self, clock: float, *, exclude: Optional[str] = None) -> BusyView:
        """The bookings live at ``clock``, without workflow ``exclude``'s."""
        if clock < self._clock:
            raise ValueError(
                f"booking directory queried at {clock} after {self._clock}"
            )
        self._clock = clock
        due = self._due
        while due and clock >= due[0][0] - TIME_EPS:
            _, version, key = heappop(due)
            entry = self._booked.get(key)
            if entry is not None and entry[0] == version:
                self.release(key)
        for rid in self._dirty:
            spans = [span for span in self._spans[rid] if span[1] - TIME_EPS > clock]
            if spans:
                self._spans[rid] = spans
                self._lanes[rid] = BookingLane(list(spans))
            else:
                del self._spans[rid]
                self._lanes.pop(rid, None)
        self._dirty.clear()
        lanes = dict(self._lanes)
        entry = self._booked.get(exclude) if exclude is not None else None
        if entry is not None:
            for rid in entry[1]:
                lane = lanes.get(rid)
                if lane is None:
                    continue
                spans = [span for span in lane.spans if span[3] != exclude]
                if spans:
                    lanes[rid] = BookingLane(spans)
                else:
                    del lanes[rid]
        return BusyView(lanes, clock)
