"""Dynamic (just-in-time) Min-Min mapping.

The paper's dynamic baseline schedules a job only when it becomes *ready*
(all predecessors finished).  At each decision point the Executor holds a
batch of ready jobs and maps them with the Min-Min heuristic: repeatedly
pick the (job, resource) pair with the smallest earliest completion time
among the jobs' individual best resources, assign it, update the resource's
availability, and continue until the batch is empty.

Two properties distinguish the dynamic strategy from the static ones in the
paper's experiment design (§4.1):

* output files are transmitted only once the consumer's resource is known,
  i.e. the transfer starts at the mapping decision time, not at the
  producer's completion time;
* the mapper sees the resource pool *as it is now*, so — unlike static
  HEFT — it can use resources that joined after the workflow started.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.scheduling.base import Assignment
from repro.scheduling.batch import BatchPlanMixin

__all__ = ["MinMinScheduler"]


def _select_min_completion(best_by_job: Dict[str, Tuple[float, Assignment]]) -> str:
    return min(
        best_by_job, key=lambda job: (best_by_job[job][1].finish, job)
    )


@dataclass
class MinMinScheduler(BatchPlanMixin):
    """Dynamic Min-Min policy object used by the just-in-time executor.

    :class:`~repro.scheduling.batch.BatchPlanMixin` maps its ready batches
    (``map_ready_jobs``) and also makes it a full-schedule planner and
    partial replanner (analytic just-in-time replay with ``busy``
    support), which is how the strategy registry exposes it to the
    invariant suite and the adaptive loop.
    """

    name: str = "MinMin"
    selector = staticmethod(_select_min_completion)
