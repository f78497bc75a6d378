"""Pluggable arc-cost models for the min-cost flow scheduler.

A cost model prices the two kinds of task arcs in the assignment graph
(:mod:`repro.scheduling.flow.graph`): ``assignment_cost(job, rid)`` —
run the job on that resource this wave — and ``deferral_cost(job)`` —
send it to the unscheduled aggregator and retry next wave.  Models see
the live :class:`~repro.scheduling.frame.PartialScheduleFrame`, so costs
reflect everything already booked: pinned history, foreign ``busy``
spans and this pass's earlier waves.

A model whose prices ignore the job declares ``task_independent``; the
graph layer then prices each resource once per wave and routes the wave
through Firmament's equivalence-class nodes instead of ``T × R`` task
arcs.  Three models ship (Firmament's OCTOPUS as the exemplar, see
SNIPPETS.md):

``octopus``
    pure load balancing: ``cost = core_id + running_tasks(rid) *
    BUSY_PU_OFFSET``, with the busy-PU count the frame keeps for its
    timelines (``frame.running_tasks``) instead of Firmament's machine
    topology; task-independent.
``locality``
    data-gravity: the summed average communication cost of every
    predecessor whose output is *not* already on the candidate resource
    (from ``CostModel.predecessor_communications``), so tasks flow
    toward their inputs; the only task-dependent model, so it solves the
    full graph.
``credit``
    OCTOPUS scaled by the multi-tenant credit weight: a violating
    tenant's placement arcs cost ``1/weight`` more while its deferral
    arc gets ``weight`` times cheaper, so eroded tenants bid weaker for
    contended slots and yield waves earlier; task-independent.
"""

from __future__ import annotations

from typing import Dict

from repro.scheduling.frame import PartialScheduleFrame

__all__ = [
    "FLOW_COST_MODELS",
    "BUSY_PU_OFFSET",
    "UNSCHEDULED_COST",
    "DEFERRAL_COST",
    "FlowCostModel",
    "OctopusCostModel",
    "LocalityCostModel",
    "CreditCostModel",
]

#: Firmament's OCTOPUS constants (octopus_cost_model.cc)
BUSY_PU_OFFSET = 100
UNSCHEDULED_COST = 1_000_000
#: the credit model's reachable deferral price (see :class:`CreditCostModel`)
DEFERRAL_COST = 64 * BUSY_PU_OFFSET


def _running_tasks(frame: PartialScheduleFrame, rid: str) -> int:
    """Bookings on ``rid`` still occupying it at or after the clock."""
    return frame.running_tasks(rid)


class FlowCostModel:
    """Base: deterministic float costs per (job, resource) / deferral."""

    name = "base"
    #: prices depend on the resource only (never on the job), so a wave
    #: may be solved through one equivalence class (see ``flow.graph``)
    task_independent = False

    def __init__(self, frame: PartialScheduleFrame, *, credit_weight: float = 1.0):
        self.frame = frame
        self.credit_weight = float(credit_weight)
        #: stable core ids, Firmament-style tie-break on equal load
        self.core_id: Dict[str, int] = {
            rid: index for index, rid in enumerate(frame.resources)
        }

    def assignment_cost(self, job: str, rid: str) -> float:
        raise NotImplementedError

    def deferral_cost(self, job: str) -> float:
        return float(UNSCHEDULED_COST)


class OctopusCostModel(FlowCostModel):
    """Load balancing only: cheapest resource = fewest busy PUs."""

    name = "octopus"
    task_independent = True

    def assignment_cost(self, job: str, rid: str) -> float:
        return self.core_id[rid] + _running_tasks(self.frame, rid) * BUSY_PU_OFFSET


class LocalityCostModel(FlowCostModel):
    """Data gravity: pay the average transfer for every remote input."""

    name = "locality"

    def __init__(self, frame: PartialScheduleFrame, *, credit_weight: float = 1.0):
        super().__init__(frame, credit_weight=credit_weight)
        structure = frame.workflow.structure()
        self._dense = {job: index for index, job in enumerate(structure.jobs)}
        self._jobs = structure.jobs
        self._pred_comm = frame.costs.predecessor_communications()

    def _data_location(self, pred: str) -> str:
        assignment = self.frame.schedule.get(pred)
        if assignment is None:
            raise RuntimeError(
                f"predecessor {pred!r} has no placement yet; the wave loop "
                "must only price ready tasks"
            )
        return assignment.resource_id

    def assignment_cost(self, job: str, rid: str) -> float:
        cost = 0.0
        for pred_id, mean_comm in self._pred_comm[self._dense[job]]:
            if self._data_location(self._jobs[pred_id]) != rid:
                cost += mean_comm
        # core id keeps ties deterministic-by-preference, as in OCTOPUS
        return cost + self.core_id[rid] * 1e-6


class CreditCostModel(OctopusCostModel):
    """OCTOPUS with credit-weighted bids (deviation from Firmament).

    Placement arcs scale by ``1/weight`` (``weight = 0.5 + 0.5·credit``,
    the :class:`~repro.core.credit.CreditLedger` damping) and the
    deferral arc by ``weight``, priced at :data:`DEFERRAL_COST` instead
    of the unreachable :data:`UNSCHEDULED_COST` so the trade-off is live:
    a fully trusted tenant defers a task only once every candidate
    resource holds ~64 outstanding bookings, while a tenant at the
    credit floor yields at ~16 — eroded credit converts contended waves
    into voluntary deferrals rather than ever-later bookings.
    """

    name = "credit"

    def assignment_cost(self, job: str, rid: str) -> float:
        base = 1.0 + super().assignment_cost(job, rid)
        return base / self.credit_weight

    def deferral_cost(self, job: str) -> float:
        return DEFERRAL_COST * self.credit_weight


FLOW_COST_MODELS = {
    model.name: model
    for model in (OctopusCostModel, LocalityCostModel, CreditCostModel)
}
