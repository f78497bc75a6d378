"""The min-cost max-flow scheduling strategy (``mincost_flow``).

Firmament/Quincy recast task placement as a flow problem: tasks and
resources become graph nodes, arc costs encode the placement policy, and
one min-cost max-flow solve maps *every* ready task at once — placement
decisions trade off against each other globally instead of greedily, and
changing the policy means changing arc costs, not the algorithm.

This strategy brings that formulation into the repo's common scheduler
interface.  Because flow solves assignment (who runs where) but not
sequencing (when), the DAG is consumed in **waves**:

1. collect the ready set — unmapped jobs whose predecessors are all
   mapped (pinned or placed in an earlier wave),
2. price every (task, resource) arc with the configured cost model and
   solve one unit-capacity assignment
   (:func:`~repro.scheduling.flow.graph.solve_assignment`),
3. book the placed tasks onto the frame's timelines at their earliest
   feasible slot; tasks the solve routed to the unscheduled aggregator
   wait for a later wave,
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
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.scheduling.base import Schedule
from repro.scheduling.flow.graph import solve_assignment
from repro.scheduling.flow.models import FLOW_COST_MODELS
from repro.scheduling.frame import BusyIntervals, PartialScheduleFrame
from repro.workflow.costs import CostModel
from repro.workflow.dag import Workflow

__all__ = ["mincost_flow_reschedule", "MinCostFlowScheduler"]


def mincost_flow_reschedule(
    workflow: Workflow,
    costs: CostModel,
    resources: Sequence[str],
    *,
    clock: float = 0.0,
    previous_schedule: Optional[Schedule] = None,
    execution_state=None,
    cost_model: str = "octopus",
    credit_weight: float = 1.0,
    insertion: bool = True,
    respect_running: bool = True,
    resource_available_from: Optional[Mapping[str, float]] = None,
    busy: Optional[BusyIntervals] = None,
    name: str = "mincost_flow",
) -> Schedule:
    """(Re)schedule a workflow via wave-by-wave min-cost flow solves.

    With ``clock == 0`` and no previous schedule this is the static
    plan; otherwise finished and running jobs stay pinned and only the
    remainder is re-mapped, exactly like the other frame-built
    replanners.
    """
    model_factory = FLOW_COST_MODELS.get(cost_model)
    if model_factory is None:
        raise ValueError(
            f"unknown flow cost model {cost_model!r}; "
            f"available: {sorted(FLOW_COST_MODELS)}"
        )
    frame = PartialScheduleFrame(
        workflow,
        costs,
        resources,
        clock=clock,
        previous_schedule=previous_schedule,
        execution_state=execution_state,
        respect_running=respect_running,
        resource_available_from=resource_available_from,
        busy=busy,
        name=name,
    )
    if not frame.to_schedule:
        return frame.schedule

    topo_index = {job: idx for idx, job in enumerate(workflow.topological_order())}
    unmapped = set(frame.to_schedule)
    while unmapped:
        ready: List[str] = sorted(
            (
                job
                for job in unmapped
                if not any(
                    pred in unmapped for pred in workflow.predecessors(job)
                )
            ),
            key=lambda job: topo_index[job],
        )
        model = model_factory(frame, credit_weight=credit_weight)
        placements = solve_assignment(
            ready, frame.resources, model.assignment_cost, model.deferral_cost
        )
        if not placements:
            # every placement arc lost to its deferral arc; force the
            # frontier job through min-EFT so the wave loop terminates
            job = ready[0]
            rid, start, finish = frame.min_eft_placement(job, insertion=insertion)
            frame.place(job, rid, start, finish)
            unmapped.discard(job)
            continue
        for job in ready:
            rid = placements.get(job)
            if rid is None:
                continue  # routed to the unscheduled aggregator
            start, finish = frame.earliest_finish(job, rid, insertion=insertion)
            frame.place(job, rid, start, finish)
            unmapped.discard(job)
    return frame.schedule


@dataclass(frozen=True)
class MinCostFlowScheduler:
    """Min-cost max-flow placement exposed through the common interface.

    ``cost_model`` selects the arc-pricing policy (``octopus``,
    ``locality`` or ``credit``); ``credit_weight`` is the tenant's
    fair-share weight, normally injected per-arrival by the multi-tenant
    planner through :meth:`bind_tenant_context`.
    """

    cost_model: str = "octopus"
    credit_weight: float = 1.0
    insertion: bool = True
    respect_running: bool = True
    name: str = "MinCostFlow"

    def __post_init__(self) -> None:
        if self.cost_model not in FLOW_COST_MODELS:
            raise ValueError(
                f"unknown flow cost model {self.cost_model!r}; "
                f"available: {sorted(FLOW_COST_MODELS)}"
            )
        if not self.credit_weight > 0:
            raise ValueError("credit_weight must be positive")

    def bind_tenant_context(self, *, credit_weight: float) -> "MinCostFlowScheduler":
        """A copy of this scheduler bidding with the tenant's weight."""
        return dataclasses.replace(self, credit_weight=float(credit_weight))

    def schedule(
        self,
        workflow: Workflow,
        costs: CostModel,
        resources: Sequence[str],
        *,
        resource_available_from: Optional[Mapping[str, float]] = None,
        busy: Optional[BusyIntervals] = None,
    ) -> Schedule:
        return mincost_flow_reschedule(
            workflow,
            costs,
            resources,
            clock=0.0,
            cost_model=self.cost_model,
            credit_weight=self.credit_weight,
            insertion=self.insertion,
            respect_running=self.respect_running,
            resource_available_from=resource_available_from,
            busy=busy,
            name=self.name,
        )

    def reschedule(
        self,
        workflow: Workflow,
        costs: CostModel,
        resources: Sequence[str],
        *,
        clock: float,
        previous_schedule: Optional[Schedule],
        execution_state=None,
        resource_available_from: Optional[Mapping[str, float]] = None,
        busy: Optional[BusyIntervals] = None,
    ) -> Schedule:
        return mincost_flow_reschedule(
            workflow,
            costs,
            resources,
            clock=clock,
            previous_schedule=previous_schedule,
            execution_state=execution_state,
            cost_model=self.cost_model,
            credit_weight=self.credit_weight,
            insertion=self.insertion,
            respect_running=self.respect_running,
            resource_available_from=resource_available_from,
            busy=busy,
            name=self.name,
        )
