"""Discrete-event simulation substrate.

The paper runs its evaluation on SimJava, a Java event-driven simulation
framework.  This package is the Python substitute: a single discrete-event
kernel of typed events (:mod:`~repro.simulation.event_core`) plus grid
executors built on it (:mod:`~repro.simulation.executor`):

* :class:`~repro.simulation.executor.StaticScheduleExecutor` — plays a
  planner-produced schedule forward in time, modelling job execution and
  output-file transfers (the Executor of paper Fig. 1 running a static
  plan),
* :class:`~repro.simulation.executor.JustInTimeExecutor` — the dynamic
  strategy: maps each batch of ready jobs with Min-Min (or another batch
  heuristic) at the moment it becomes ready,
* :class:`~repro.simulation.shared_grid.SharedGridExecutor` — the
  multi-tenant executor: concurrent workflow streams from several tenants
  book slots on the *same* resource timelines, with per-tenant AHEFT
  replanning against the shared residual capacity.

Execution produces an :class:`~repro.simulation.trace.ExecutionTrace`
recording actual start/finish times, file transfers and the makespan.
"""

from repro.simulation.event_core import (
    Event,
    EventCore,
    EventKind,
    SimulationError,
)
from repro.simulation.executor import JustInTimeExecutor, StaticScheduleExecutor
from repro.simulation.shared_grid import (
    SharedGridExecutor,
    SharedGridResult,
    WorkflowOutcome,
)
from repro.simulation.trace import ExecutionTrace, TransferRecord, render_gantt

__all__ = [
    "Event",
    "EventCore",
    "EventKind",
    "SimulationError",
    "StaticScheduleExecutor",
    "JustInTimeExecutor",
    "SharedGridExecutor",
    "SharedGridResult",
    "WorkflowOutcome",
    "ExecutionTrace",
    "TransferRecord",
    "render_gantt",
]
