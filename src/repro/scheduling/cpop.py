"""CPOP — Critical-Path-on-a-Processor (Topcuoglu et al., 2002).

CPOP is HEFT's sibling heuristic from the same paper: jobs are prioritised
by ``rank_u + rank_d`` (the length of the longest path *through* each
job), the critical path is the chain whose members attain the maximal
priority, and a single **critical-path processor** — the resource
minimising the summed computation cost of the critical-path jobs — runs
the whole chain.  Off-path jobs are placed with HEFT's minimum-EFT rule.
Scheduling proceeds over a ready queue ordered by priority, so the
placement order is always topologically consistent.

Here CPOP is additionally a *replanner*: built on
:class:`~repro.scheduling.frame.PartialScheduleFrame`, it can reschedule
the unfinished part of a partially executed workflow at an arbitrary
``clock`` (finished/running work pinned, FEA semantics of paper
Eq. 1–3) and plan around foreign ``busy`` bookings on a shared grid —
which is what lets ``repro.run(..., mode="adaptive", strategy="cpop")``
ablate the paper's AHEFT against a CPOP-based adaptive loop.

At replan time the critical-path processor is re-chosen to minimise the
summed cost of the *remaining* (not yet pinned) critical-path jobs, so a
chain half-executed elsewhere does not anchor the rest to a stale choice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.scheduling.base import Schedule
from repro.scheduling.frame import PartialScheduleFrame, plan, replan
from repro.workflow.analysis import downward_ranks, upward_ranks
from repro.workflow.dag import Workflow

__all__ = ["CPOPScheduler"]


def _critical_path(workflow: Workflow, priority: Dict[str, float]) -> List[str]:
    """The entry-to-exit chain of maximal ``rank_u + rank_d`` priority."""
    entries = [job for job in workflow.jobs if not workflow.predecessors(job)]
    cp_value = max(priority[job] for job in entries)
    eps = 1e-9 * max(1.0, abs(cp_value))
    path: List[str] = []
    cursor: Optional[str] = min(
        (job for job in entries if priority[job] >= cp_value - eps), key=str
    )
    while cursor is not None:
        path.append(cursor)
        on_path = [
            succ
            for succ in workflow.successors(cursor)
            if priority[succ] >= cp_value - eps
        ]
        cursor = min(on_path, key=str) if on_path else None
    return path


@dataclass(frozen=True)
class CPOPScheduler:
    """CPOP through the common scheduler interface.

    With ``clock == 0`` and no previous schedule this is the classic
    static CPOP; otherwise finished and running jobs stay pinned and only
    the remainder is re-mapped, exactly like AHEFT's partial rescheduling.
    """

    insertion: bool = True
    name: str = "CPOP"

    schedule = plan
    reschedule = replan

    def place(self, frame: PartialScheduleFrame) -> Schedule:
        workflow = frame.workflow
        costs = frame.costs
        insertion = self.insertion
        up = upward_ranks(workflow, costs, frame.resources)
        down = downward_ranks(workflow, costs, frame.resources)
        priority = {job: up[job] + down[job] for job in workflow.jobs}
        cp_jobs = set(_critical_path(workflow, priority))

        remaining_cp = sorted(cp_jobs & frame.to_schedule_set)
        anchor = remaining_cp if remaining_cp else sorted(cp_jobs)
        cp_rid = min(
            frame.resources,
            key=lambda rid: (
                sum(costs.computation_cost(job, rid) for job in anchor),
                rid,
            ),
        )

        # ready-queue scheduling: highest priority first, topologically safe
        topo_index = {job: idx for idx, job in enumerate(workflow.topological_order())}
        pending: Dict[str, int] = {}
        heap: List[tuple] = []
        for job in frame.to_schedule:
            open_preds = sum(
                1 for pred in workflow.predecessors(job) if pred in frame.to_schedule_set
            )
            pending[job] = open_preds
            if open_preds == 0:
                heapq.heappush(heap, (-priority[job], topo_index[job], job))
        while heap:
            _, _, job = heapq.heappop(heap)
            if job in cp_jobs:
                duration = costs.computation_cost(job, cp_rid)
                start = frame.timelines[cp_rid].earliest_start(
                    frame.ready_time(job, cp_rid), duration, insertion=insertion
                )
                frame.place(job, cp_rid, start, start + duration)
            else:
                rid, start, finish = frame.min_eft_placement(job, insertion=insertion)
                frame.place(job, rid, start, finish)
            for succ in workflow.successors(job):
                if succ not in pending:
                    continue
                pending[succ] -= 1
                if pending[succ] == 0:
                    heapq.heappush(heap, (-priority[succ], topo_index[succ], succ))
        return frame.schedule
