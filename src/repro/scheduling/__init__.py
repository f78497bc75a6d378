"""Scheduling heuristics: static HEFT, adaptive AHEFT and dynamic baselines.

The package exposes:

* :class:`~repro.scheduling.base.Schedule` / :class:`~repro.scheduling.base.Assignment`
  — the mapping produced by the Planner,
* :class:`~repro.scheduling.base.ExecutionState` — the run-time snapshot
  (actual start/finish times, statuses) the adaptive Planner reasons about,
* :func:`~repro.scheduling.heft.heft_schedule` — the HEFT heuristic of
  Topcuoglu et al. (the paper's static baseline and the heuristic H plugged
  into AHEFT),
* :func:`~repro.scheduling.aheft.aheft_reschedule` — the paper's
  contribution: HEFT-based rescheduling of the unfinished part of a
  partially executed workflow (Equations 1–3),
* dynamic baselines (Min-Min, Max-Min, Sufferage) in
  :mod:`~repro.scheduling.minmin` and :mod:`~repro.scheduling.baselines`,
* the wider strategy zoo — :func:`~repro.scheduling.cpop.cpop_reschedule`
  (critical-path-on-a-processor),
  :func:`~repro.scheduling.lookahead.lookahead_heft_reschedule`
  (child-aware EFT placement) and
  :func:`~repro.scheduling.duplication.heft_dup_reschedule` (HEFT with
  task duplication),
* the one placement kernel every strategy above runs on —
  :class:`~repro.scheduling.frame.PartialScheduleFrame` (pinning,
  timelines, the FEA of Eq. 1–3 and the min-EFT rule, with its fast
  path); HEFT is its ``clock = 0`` pass and AHEFT its mid-flight pass,
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
from repro.scheduling.heft import HEFTScheduler, heft_schedule
from repro.scheduling.aheft import AHEFTScheduler, aheft_reschedule
from repro.scheduling.minmin import MinMinScheduler, minmin_batch
from repro.scheduling.baselines import (
    MaxMinScheduler,
    SufferageScheduler,
    RandomStaticScheduler,
    OpportunisticLoadBalancer,
)
from repro.scheduling.frame import PartialScheduleFrame
from repro.scheduling.cpop import CPOPScheduler, cpop_reschedule
from repro.scheduling.lookahead import (
    LookaheadHEFTScheduler,
    lookahead_heft_reschedule,
)
from repro.scheduling.duplication import HEFTDupScheduler, heft_dup_reschedule
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
    "heft_schedule",
    "AHEFTScheduler",
    "aheft_reschedule",
    "MinMinScheduler",
    "minmin_batch",
    "MaxMinScheduler",
    "SufferageScheduler",
    "RandomStaticScheduler",
    "OpportunisticLoadBalancer",
    "PartialScheduleFrame",
    "CPOPScheduler",
    "cpop_reschedule",
    "LookaheadHEFTScheduler",
    "lookahead_heft_reschedule",
    "HEFTDupScheduler",
    "heft_dup_reschedule",
    "SCHEDULERS",
    "StrategyInfo",
    "register_scheduler",
    "ScheduleValidationError",
    "validate_schedule",
    "check_precedence",
    "check_no_overlap",
    "check_resource_availability",
]
