"""Lookahead HEFT — child-aware earliest-finish-time placement.

Plain HEFT places each job greedily on the resource minimising its own
EFT; when a job's children are communication-heavy this can strand the
children behind an expensive transfer.  The lookahead variant
(Bittencourt, Sakellariou & Madeira, 2010) evaluates each candidate
resource by *one step of lookahead*: tentatively place the job there,
estimate the best achievable EFT of every child given that placement,
and choose the resource minimising the worst child EFT (ties broken by
the job's own EFT, then by resource order — deterministic).

Approximations, documented deviations from the cited formulation:

* a child's other predecessors that are neither pinned nor placed yet
  contribute nothing to its estimated ready time (the full algorithm
  recursively schedules the children; one-step lookahead does not);
* on the tentative resource itself, the child is appended after the
  tentative job rather than inserted into earlier gaps.

Both approximations only affect the *selection score*; the actual
placement uses the exact timelines, so feasibility is never at stake.

Like every frame-based strategy, lookahead HEFT doubles as a partial
replanner (pinning, FEA of Eq. 1–3, foreign ``busy`` bookings), so it
can drive the adaptive loop via ``repro.run(..., mode="adaptive",
strategy="lookahead_heft")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.scheduling.base import JobStatus, Schedule, TIME_EPS
from repro.scheduling.frame import PartialScheduleFrame, plan, replan
from repro.scheduling.heft import heft_priority_order

__all__ = ["LookaheadHEFTScheduler"]


def _child_best_eft(
    frame: PartialScheduleFrame,
    child: str,
    job: str,
    job_rid: str,
    job_finish: float,
    *,
    insertion: bool,
) -> float:
    """Best achievable EFT of ``child`` given ``job`` tentatively placed."""
    workflow = frame.workflow
    costs = frame.costs
    state = frame.state
    best = float("inf")
    for rid in frame.resources:
        ready = frame.clock
        for pred in workflow.predecessors(child):
            if pred == job:
                if rid == job_rid:
                    value = job_finish
                else:
                    value = job_finish + costs.communication_cost(
                        pred, child, job_rid, rid
                    )
            elif (
                state.job_status(pred) is JobStatus.FINISHED
                or frame.schedule.get(pred) is not None
            ):
                value = frame.fea(pred, child, rid)
            else:
                continue  # unscheduled sibling predecessor: no estimate yet
            if value > ready:
                ready = value
        duration = costs.computation_cost(child, rid)
        if rid == job_rid:
            # the tentative job occupies [start, finish) here: append after
            start = frame.timelines[rid].earliest_start(
                max(ready, job_finish), duration, insertion=insertion
            )
        else:
            start = frame.timelines[rid].earliest_start(
                ready, duration, insertion=insertion
            )
        finish = start + duration
        if finish < best:
            best = finish
    return best


@dataclass(frozen=True)
class LookaheadHEFTScheduler:
    """Lookahead HEFT through the common scheduler interface."""

    insertion: bool = True
    name: str = "LookaheadHEFT"

    schedule = plan
    reschedule = replan

    def place(self, frame: PartialScheduleFrame) -> Schedule:
        """(Re)schedule with one-step child-aware EFT placement."""
        workflow = frame.workflow
        insertion = self.insertion
        order = [
            job
            for job in heft_priority_order(workflow, frame.costs, frame.resources)
            if job in frame.to_schedule_set
        ]
        for job in order:
            children = list(workflow.successors(job))
            best_rid: Optional[str] = None
            best_start = 0.0
            best_finish = float("inf")
            best_score = float("inf")
            for rid in frame.resources:
                start, finish = frame.earliest_finish(job, rid, insertion=insertion)
                score = finish
                for child in children:
                    child_eft = _child_best_eft(
                        frame, child, job, rid, finish, insertion=insertion
                    )
                    if child_eft > score:
                        score = child_eft
                if (
                    best_rid is None
                    or score < best_score - TIME_EPS
                    or (abs(score - best_score) <= TIME_EPS and finish < best_finish - TIME_EPS)
                ):
                    best_rid = rid
                    best_start = start
                    best_finish = finish
                    best_score = score
            assert best_rid is not None
            frame.place(job, best_rid, best_start, best_finish)
        return frame.schedule
