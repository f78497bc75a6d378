"""Min-cost max-flow scheduling (Firmament-style), as a registry strategy.

Layered bottom-up: :mod:`~repro.scheduling.flow.solver` is a generic
deterministic min-cost max-flow solver, :mod:`~repro.scheduling.flow.graph`
builds and solves the one-wave task-assignment graph (the full
``T × R`` graph, or Firmament's equivalence-class graph when the cost
model is task-independent),
:mod:`~repro.scheduling.flow.models` prices its arcs (pluggable cost
models), and :mod:`~repro.scheduling.flow.scheduler` drives waves of
solves over a :class:`~repro.scheduling.frame.PartialScheduleFrame` to
produce full schedules — registered as ``mincost_flow``.
"""

from repro.scheduling.flow.graph import COST_SCALE, solve_assignment
from repro.scheduling.flow.models import (
    BUSY_PU_OFFSET,
    DEFERRAL_COST,
    FLOW_COST_MODELS,
    UNSCHEDULED_COST,
    CreditCostModel,
    FlowCostModel,
    LocalityCostModel,
    OctopusCostModel,
)
from repro.scheduling.flow.scheduler import MinCostFlowScheduler
from repro.scheduling.flow.solver import FlowNetwork

__all__ = [
    "FlowNetwork",
    "COST_SCALE",
    "solve_assignment",
    "FLOW_COST_MODELS",
    "BUSY_PU_OFFSET",
    "UNSCHEDULED_COST",
    "DEFERRAL_COST",
    "FlowCostModel",
    "OctopusCostModel",
    "LocalityCostModel",
    "CreditCostModel",
    "MinCostFlowScheduler",
]
