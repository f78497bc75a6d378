"""Scheduling heuristics: static HEFT, adaptive AHEFT and dynamic baselines.

The package exposes:

* :class:`~repro.scheduling.base.Schedule` / :class:`~repro.scheduling.base.Assignment`
  — the mapping produced by the Planner,
* :class:`~repro.scheduling.base.ExecutionState` — the run-time snapshot
  (actual start/finish times, statuses) the adaptive Planner reasons about,
* :class:`~repro.scheduling.heft.HEFTScheduler` — the HEFT heuristic of
  Topcuoglu et al. (the paper's static baseline and the heuristic H plugged
  into AHEFT),
* :class:`~repro.scheduling.aheft.AHEFTScheduler` — the paper's
  contribution: HEFT-based rescheduling of the unfinished part of a
  partially executed workflow (Equations 1–3),
* dynamic baselines (Min-Min, Max-Min, Sufferage) in
  :mod:`~repro.scheduling.minmin` and :mod:`~repro.scheduling.baselines`,
* the wider strategy zoo — :class:`~repro.scheduling.cpop.CPOPScheduler`
  (critical-path-on-a-processor),
  :class:`~repro.scheduling.lookahead.LookaheadHEFTScheduler`
  (child-aware EFT placement) and
  :class:`~repro.scheduling.duplication.HEFTDupScheduler` (HEFT with
  task duplication),
* the one placement kernel every strategy above runs on —
  :class:`~repro.scheduling.frame.PartialScheduleFrame` (pinning,
  timelines, the FEA of Eq. 1–3 and the min-EFT rule, with its fast
  path) — and the one driver pair :func:`~repro.scheduling.frame.plan` /
  :func:`~repro.scheduling.frame.replan` that builds it: every strategy is
  a ``place(frame)`` policy, so HEFT is the ``clock = 0`` pass and AHEFT
  the mid-flight pass of the same rank-order placement,
* the **strategy registry** (:data:`~repro.scheduling.registry.SCHEDULERS`,
  instantiated through :func:`repro.registry.make`) naming every
  strategy for the sweeps, the CLI and the universal invariant tests,
* schedule feasibility validation in :mod:`~repro.scheduling.validation`.
"""

from repro.scheduling.base import (
    Assignment,
    ExecutionState,
    JobStatus,
    ResourceTimeline,
    Schedule,
)
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.minmin import MinMinScheduler, minmin_batch
from repro.scheduling.baselines import (
    MaxMinScheduler,
    SufferageScheduler,
    RandomStaticScheduler,
    OpportunisticLoadBalancer,
)
from repro.scheduling.frame import PartialScheduleFrame
from repro.scheduling.cpop import CPOPScheduler
from repro.scheduling.lookahead import LookaheadHEFTScheduler
from repro.scheduling.duplication import HEFTDupScheduler
from repro.scheduling.registry import (
    SCHEDULERS,
    StrategyInfo,
    register_scheduler,
)
from repro.scheduling.validation import (
    ScheduleValidationError,
    validate_schedule,
    check_precedence,
    check_no_overlap,
    check_resource_availability,
)

__all__ = [
    "Assignment",
    "ExecutionState",
    "JobStatus",
    "ResourceTimeline",
    "Schedule",
    "HEFTScheduler",
    "AHEFTScheduler",
    "MinMinScheduler",
    "minmin_batch",
    "MaxMinScheduler",
    "SufferageScheduler",
    "RandomStaticScheduler",
    "OpportunisticLoadBalancer",
    "PartialScheduleFrame",
    "CPOPScheduler",
    "LookaheadHEFTScheduler",
    "HEFTDupScheduler",
    "SCHEDULERS",
    "StrategyInfo",
    "register_scheduler",
    "ScheduleValidationError",
    "validate_schedule",
    "check_precedence",
    "check_no_overlap",
    "check_resource_availability",
]
