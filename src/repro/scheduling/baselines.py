"""Additional scheduling baselines.

Besides the three strategies the paper evaluates head-to-head (static HEFT,
adaptive AHEFT, dynamic Min-Min) this module provides common comparison
points used by the broader DAG-scheduling literature the paper cites
(Braun et al. heuristics, the Höing/Schiffmann test bench):

* :class:`MaxMinScheduler` and :class:`SufferageScheduler` — dynamic batch
  heuristics sharing the Min-Min machinery,
* :class:`RandomStaticScheduler` — static mapping with random resource
  choice (a sanity lower bound),
* :class:`OpportunisticLoadBalancer` — static mapping to the earliest-ready
  resource ignoring execution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.scheduling.base import Assignment, Schedule
from repro.scheduling.batch import BatchPlanMixin
from repro.scheduling.frame import PartialScheduleFrame, plan
from repro.utils.rng import spawn_rng

__all__ = [
    "MaxMinScheduler",
    "SufferageScheduler",
    "RandomStaticScheduler",
    "OpportunisticLoadBalancer",
]


def _select_max_completion(best_by_job: Dict[str, Tuple[float, Assignment]]) -> str:
    return max(
        best_by_job, key=lambda job: (best_by_job[job][1].finish, job)
    )


def _select_max_sufferage(best_by_job: Dict[str, Tuple[float, Assignment]]) -> str:
    return max(best_by_job, key=lambda job: (best_by_job[job][0], job))


@dataclass
class MaxMinScheduler(BatchPlanMixin):
    """Dynamic Max-Min: fix the ready job with the *largest* best completion."""

    name: str = "MaxMin"
    selector = staticmethod(_select_max_completion)


@dataclass
class SufferageScheduler(BatchPlanMixin):
    """Dynamic Sufferage: fix the job that loses most if denied its best resource."""

    name: str = "Sufferage"
    selector = staticmethod(_select_max_sufferage)


@dataclass
class RandomStaticScheduler:
    """Static schedule with a uniformly random resource per job.

    Jobs are placed in topological order at their earliest feasible start on
    the randomly chosen resource.  Deterministic for a fixed ``seed``.
    """

    seed: int = 0
    insertion: bool = True
    name: str = "RandomStatic"

    schedule = plan

    def place(self, frame: PartialScheduleFrame) -> Schedule:
        resources = frame.resources
        rng = spawn_rng(self.seed, "random-static", frame.workflow.name)
        for job in frame.workflow.topological_order():
            rid = resources[int(rng.integers(0, len(resources)))]
            start, finish = frame.earliest_finish(job, rid, insertion=self.insertion)
            frame.place(job, rid, start, finish)
        return frame.schedule


@dataclass
class OpportunisticLoadBalancer:
    """Static OLB: place each job on the resource that becomes free first.

    Ignores execution-time heterogeneity entirely — a classic weak baseline
    that bounds how much of HEFT's advantage comes from cost awareness.
    """

    insertion: bool = False
    name: str = "OLB"

    schedule = plan

    def place(self, frame: PartialScheduleFrame) -> Schedule:
        timelines = frame.timelines
        for job in frame.workflow.topological_order():
            # Earliest-ready resource, ties broken by identifier.
            rid = min(frame.resources, key=lambda r: (timelines[r].ready_time(), r))
            start, finish = frame.earliest_finish(job, rid, insertion=self.insertion)
            frame.place(job, rid, start, finish)
        return frame.schedule
