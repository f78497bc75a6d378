"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002).

HEFT is the static heuristic the paper builds on: jobs are prioritised by
*upward rank* (Eq. 5/6) and, in non-increasing rank order, each job is
placed on the resource that minimises its Earliest Finish Time, optionally
using the insertion-based policy (a job may be placed in an idle gap between
already-scheduled jobs on a resource).

This module implements the *traditional* static HEFT used as the paper's
baseline: it is executed once, before the workflow starts, against the
resource pool known at time 0, and it never revisits its decisions.

Placement runs on the one kernel every strategy shares,
:class:`~repro.scheduling.frame.PartialScheduleFrame`: static HEFT is a
frame at ``clock = 0`` with no previous schedule
(:func:`~repro.scheduling.frame.plan`), placed in rank order by
:func:`_place_by_rank` — the same loop AHEFT runs mid-flight.  The priority
order is memoized per ``(workflow.version, pool signature)`` on the cost
model, so the adaptive loop's per-event rescheduling reuses ranks whenever
the DAG and the pool are unchanged.  The frame's fast path and its scalar
loop are bit-identical to the frozen seed kernel kept as a test oracle in
``benchmarks/_seed_reference.py``; ``tests/test_scheduling_base.py``
asserts this on seeded random and application DAGs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.scheduling.base import Schedule
from repro.scheduling.frame import PartialScheduleFrame, occupy_busy_intervals, plan
from repro.workflow.analysis import upward_ranks
from repro.workflow.costs import CostModel
from repro.workflow.dag import Workflow

__all__ = ["heft_priority_order", "occupy_busy_intervals", "HEFTScheduler"]


def _compute_priority_order(
    workflow: Workflow,
    costs: CostModel,
    resources: Optional[Sequence[str]],
) -> List[str]:
    ranks = upward_ranks(workflow, costs, resources)
    topo_index = {job: idx for idx, job in enumerate(workflow.topological_order())}
    return sorted(
        workflow.jobs,
        key=lambda job: (-ranks[job], topo_index[job], job),
    )


def heft_priority_order(
    workflow: Workflow,
    costs: CostModel,
    resources: Optional[Sequence[str]] = None,
) -> List[str]:
    """Jobs sorted by non-increasing upward rank.

    Ties are broken by topological position (predecessors first) and then by
    job identifier, so the order is deterministic and always topologically
    consistent even when zero-cost jobs make ranks equal.

    The order (and the upward ranks feeding it) is cached on the cost model,
    keyed by the workflow version and the pool signature, so repeated calls
    during adaptive rescheduling only pay for the sort once per DAG version
    and pool.  The cache holds the current pool's order only: a call on a
    new pool replaces it.
    """
    if workflow is costs.workflow:
        order = costs.memoize(
            ("priority", None if resources is None else tuple(resources)),
            lambda: _compute_priority_order(workflow, costs, resources),
        )
        return list(order)
    return _compute_priority_order(workflow, costs, resources)


def _place_by_rank(frame: PartialScheduleFrame, *, insertion: bool = True) -> Schedule:
    """HEFT's placement phase over a frame: every re-mappable job, in
    upward-rank order, goes to its minimum-EFT resource.

    At ``clock = 0`` with no previous schedule this is static HEFT; on a
    partially executed workflow it is AHEFT's rescheduling step.
    """
    pending = frame.to_schedule_set
    for job in heft_priority_order(frame.workflow, frame.costs, frame.resources):
        if job in pending:
            rid, start, finish = frame.min_eft_placement(job, insertion=insertion)
            frame.place(job, rid, start, finish)
    return frame.schedule


@dataclass
class HEFTScheduler:
    """Static HEFT through the common scheduler interface.

    Used by the Planner (which holds a scheduler instance per workflow,
    paper §3.2) and by the experiment harness where scheduler objects are
    swapped polymorphically.  ``insertion`` selects the original HEFT
    insertion-based policy (default) or append-after-last placement.
    Plan-once: it has no ``reschedule``.
    """

    insertion: bool = True
    name: str = "HEFT"

    schedule = plan

    def place(self, frame: PartialScheduleFrame) -> Schedule:
        return _place_by_rank(frame, insertion=self.insertion)
