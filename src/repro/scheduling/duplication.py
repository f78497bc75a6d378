"""HEFT with task duplication.

Duplication-based list scheduling attacks the transfer bottleneck from
the other side: instead of waiting for a predecessor's output to cross
the network, re-run the predecessor *locally* on the consumer's resource
when the re-execution finishes before the transfer would.  This module
implements the classic conservative variant on top of HEFT:

* jobs are placed in HEFT's upward-rank order with the minimum-EFT rule;
* per candidate resource, the placement additionally evaluates
  duplicating the job's *binding* predecessor — the one whose file
  earliest availability dominates the ready time — onto that resource
  (its own inputs priced with the usual FEA rules, its slot found on the
  real timeline);
* the duplicate is adopted only when it strictly lowers the job's EFT;
  the globally best (resource, with-or-without-duplicate) option wins.

Duplicates are first-class: they occupy processor time on the shared
timelines (so later jobs and other tenants plan around them), they are
recorded on the returned :class:`~repro.scheduling.base.Schedule` via
:meth:`~repro.scheduling.base.Schedule.add_duplicate`, and the
feasibility validators treat every copy as a data source.  Job status,
finish times and the makespan always come from the primary copies.

As a replanner (``repro.run(..., mode="adaptive", strategy="heft_dup")``)
the strategy re-derives duplicates from scratch on every pass — stale
duplicates from the previous plan are dropped (those that already began
executing stay pinned as facts), and a duplicate stranded on a departing
resource marks the plan infeasible exactly like a stranded primary (see
the departure kills of :meth:`repro.core.adaptive.AdaptiveWorkflow.step`).

Execution semantics: the discrete-event static executor runs duplicates
as real work (they occupy their booked slot, and their output is one
more data source for the job's consumers — under accurate estimates the
simulated makespan equals the planned one exactly), and so does the
truth replay (:func:`repro.core.adaptive.project_actuals`), for the
adaptive loop and the shared grid alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.scheduling.base import Schedule, TIME_EPS
from repro.scheduling.frame import PartialScheduleFrame, clone_timeline, plan, replan
from repro.scheduling.heft import heft_priority_order

__all__ = ["HEFTDupScheduler"]

#: a fully specified placement option: (finish, start, dup or None)
#: where dup = (pred, dup_start, dup_finish)
_Option = Tuple[float, float, Optional[Tuple[str, float, float]]]


def _candidate_on(
    frame: PartialScheduleFrame, job: str, rid: str, *, insertion: bool
) -> _Option:
    """Best option for ``job`` on ``rid``: plain EFT vs duplicate-assisted."""
    costs = frame.costs
    duration = costs.computation_cost(job, rid)
    feas: Dict[str, float] = {
        pred: frame.fea(pred, job, rid) for pred in frame.workflow.predecessors(job)
    }
    ready = frame.clock
    for value in feas.values():
        if value > ready:
            ready = value
    timeline = frame.timelines[rid]
    start = timeline.earliest_start(ready, duration, insertion=insertion)
    plain: _Option = (start + duration, start, None)
    if not feas:
        return plain

    # binding predecessor: the latest input (deterministic tie-break)
    p_star = max(feas, key=lambda p: (feas[p], p))
    if feas[p_star] <= frame.clock + TIME_EPS:
        return plain  # nothing to gain: inputs are not the constraint
    dup_duration = costs.computation_cost(p_star, rid)
    dup_ready = frame.ready_time(p_star, rid)
    dup_start = timeline.earliest_start(dup_ready, dup_duration, insertion=insertion)
    dup_finish = dup_start + dup_duration
    ready2 = frame.clock
    for pred, value in feas.items():
        value = min(value, dup_finish) if pred == p_star else value
        if value > ready2:
            ready2 = value
    # the duplicate occupies the timeline too: place the job around it
    tentative = clone_timeline(timeline)
    tentative.occupy(dup_start, dup_finish, f"<dup:{p_star}>")
    start2 = tentative.earliest_start(ready2, duration, insertion=insertion)
    finish2 = start2 + duration
    if finish2 < plain[0] - TIME_EPS:
        return (finish2, start2, (p_star, dup_start, dup_finish))
    return plain


@dataclass(frozen=True)
class HEFTDupScheduler:
    """HEFT with task duplication through the common scheduler interface."""

    insertion: bool = True
    name: str = "HEFT-Dup"

    schedule = plan
    reschedule = replan

    def place(self, frame: PartialScheduleFrame) -> Schedule:
        """(Re)schedule with HEFT order and duplication-assisted placement."""
        insertion = self.insertion
        order = [
            job
            for job in heft_priority_order(frame.workflow, frame.costs, frame.resources)
            if job in frame.to_schedule_set
        ]
        for job in order:
            best_rid: Optional[str] = None
            best: Optional[_Option] = None
            for rid in frame.resources:
                option = _candidate_on(frame, job, rid, insertion=insertion)
                if best is None or option[0] < best[0] - TIME_EPS:
                    best_rid = rid
                    best = option
            assert best_rid is not None and best is not None
            finish, start, dup = best
            if dup is not None:
                pred, dup_start, dup_finish = dup
                frame.place_duplicate(pred, best_rid, dup_start, dup_finish)
            frame.place(job, best_rid, start, finish)
        return frame.schedule
