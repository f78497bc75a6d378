"""The min-cost max-flow scheduling strategy (``mincost_flow``).

Firmament/Quincy recast task placement as a flow problem: tasks and
resources become graph nodes, arc costs encode the placement policy, and
one min-cost max-flow solve maps *every* ready task at once — placement
decisions trade off against each other globally instead of greedily, and
changing the policy means changing arc costs, not the algorithm.

This strategy brings that formulation into the repo's common scheduler
interface.  Because flow solves assignment (who runs where) but not
sequencing (when), the DAG is consumed in **waves**:

1. take the ready set — unmapped jobs whose predecessors are all mapped
   (pinned or placed in an earlier wave).  Each job keeps a counter of
   its unmapped predecessors, decremented when a wave ends, so a
   successor joins the ready set only after its predecessor's wave,
2. price the arcs with the configured cost model and solve one
   unit-capacity assignment
   (:func:`~repro.scheduling.flow.graph.solve_assignment`; a
   task-independent model is priced once per resource, from the frame's
   kept running-task counts, and solved on the equivalence-class graph),
3. book the placed tasks onto the frame's timelines at their earliest
   feasible slot (``frame.earliest_finish``, answered from the frame's
   dense per-job state when the cost model allows its fast path); tasks
   the solve routed to the unscheduled aggregator wait for a later wave,
4. if a wave places nothing (every deferral arc undercut every
   placement arc), force-place the first ready job by HEFT's minimum-EFT
   rule so the loop always terminates.

Unit resource capacity per wave mirrors Firmament's one-slot-per-PU
machine topology and doubles as the load-spreading mechanism: a wave of
``k`` ready tasks lands on ``k`` distinct resources when the pool allows.
Within a wave, placement order cannot change the outcome — each resource
receives at most one new task and FEA only reads already-mapped
predecessors — so the schedule is a pure function of the solve, which is
itself deterministic (integer costs, ordered arcs).

Built on :class:`~repro.scheduling.frame.PartialScheduleFrame`, the
strategy inherits partial rescheduling and shared-grid ``busy`` support,
so it serves as the replanner inside ``repro.run(..., mode="adaptive")``
and the multi-tenant planner like every other frame-built heuristic.  The
``credit`` cost model additionally understands per-tenant credit: the
planner rebinds the scheduler via :meth:`MinCostFlowScheduler.
bind_tenant_context` so an eroded tenant bids weaker for contended
slots (see :mod:`repro.scheduling.flow.models`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.scheduling.base import Schedule
from repro.scheduling.flow.graph import solve_assignment
from repro.scheduling.flow.models import FLOW_COST_MODELS
from repro.scheduling.frame import PartialScheduleFrame, plan, replan

__all__ = ["MinCostFlowScheduler"]


@dataclass(frozen=True)
class MinCostFlowScheduler:
    """Min-cost max-flow placement exposed through the common interface.

    ``cost_model`` selects the arc-pricing policy (``octopus``,
    ``locality`` or ``credit``); ``credit_weight`` is the tenant's
    fair-share weight, normally injected per-arrival by the multi-tenant
    planner through :meth:`bind_tenant_context`.  With ``clock == 0`` and
    no previous schedule this is the static plan; otherwise finished and
    running jobs stay pinned and only the remainder is re-mapped, exactly
    like the other frame-built replanners.
    """

    cost_model: str = "octopus"
    credit_weight: float = 1.0
    insertion: bool = True
    name: str = "MinCostFlow"

    schedule = plan
    reschedule = replan

    def __post_init__(self) -> None:
        if self.cost_model not in FLOW_COST_MODELS:
            raise ValueError(
                f"unknown flow cost model {self.cost_model!r}; "
                f"available: {sorted(FLOW_COST_MODELS)}"
            )
        if not (self.credit_weight > 0 and math.isfinite(self.credit_weight)):
            raise ValueError(
                f"credit_weight must be positive and finite, got {self.credit_weight!r}"
            )

    def bind_tenant_context(self, *, credit_weight: float) -> "MinCostFlowScheduler":
        """A copy of this scheduler bidding with the tenant's weight."""
        return dataclasses.replace(self, credit_weight=float(credit_weight))

    def place(self, frame: PartialScheduleFrame) -> Schedule:
        """(Re)schedule the frame's open jobs via wave-by-wave flow solves."""
        workflow = frame.workflow
        topo_rank = {job: rank for rank, job in enumerate(workflow.topological_order())}
        # unmapped-predecessor counters; a job is ready once its count is 0
        waiting = {
            job: sum(1 for pred in workflow.predecessors(job) if pred in frame.to_schedule_set)
            for job in frame.to_schedule
        }
        ready = sorted((job for job, count in waiting.items() if not count), key=topo_rank.get)
        model = FLOW_COST_MODELS[self.cost_model](frame, credit_weight=self.credit_weight)
        while ready:
            placements = solve_assignment(
                ready,
                frame.resources,
                model.assignment_cost,
                model.deferral_cost,
                task_independent=model.task_independent,
            )
            if not placements:
                # every placement arc lost to its deferral arc; force the
                # frontier job through min-EFT so the wave loop terminates
                job = ready[0]
                rid, start, finish = frame.min_eft_placement(job, insertion=self.insertion)
                frame.place(job, rid, start, finish)
                placements = {job: rid}
            else:
                for job in ready:
                    rid = placements.get(job)
                    if rid is None:
                        continue  # routed to the unscheduled aggregator
                    start, finish = frame.earliest_finish(job, rid, insertion=self.insertion)
                    frame.place(job, rid, start, finish)
            # the wave has ended: its successors may join the next one
            ready = [job for job in ready if job not in placements]
            for job in placements:
                for succ in workflow.successors(job):
                    if succ in waiting:
                        waiting[succ] -= 1
                        if not waiting[succ]:
                            ready.append(succ)
            ready.sort(key=topo_rank.get)
        return frame.schedule
