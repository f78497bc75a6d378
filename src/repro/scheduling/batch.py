"""The dynamic batch heuristics (Min-Min family): one mixin, two views.

The Min-Min / Max-Min / Sufferage heuristics are *dynamic* by nature:
the just-in-time executor hands them a batch of ready jobs at each
decision instant (see :mod:`repro.scheduling.minmin`), and
:meth:`BatchPlanMixin.map_ready_jobs` maps it under the family member's
``selector``.  To make them first-class citizens of the strategy
registry — full-schedule producers for the universal invariant suite,
golden fixtures and the tournament, replanners for the adaptive loop,
``busy``-aware tenants on a shared grid — :class:`BatchPlanMixin` also
replays that just-in-time process *analytically*:

* time advances from ``clock`` through the completion instants of mapped
  jobs; at each instant every job whose predecessors have all finished
  forms the ready batch;
* the batch is fixed job by job with the family's selector (smallest
  best completion for Min-Min, largest for Max-Min, largest sufferage
  for Sufferage), identical to :meth:`BatchPlanMixin.map_ready_jobs`;
* candidate completions follow the dynamic-strategy rules of the paper
  (§4.1): input transfers start at the mapping decision time, and
  placement respects the per-resource timelines — which is what makes
  foreign ``busy`` bookings and pinned work binding.

The one deliberate difference from the scalar ``map_ready_jobs`` is that
slots come from :meth:`ResourceTimeline.earliest_start` (insertion
enabled), so busy blocks booked by other tenants in the future do not
push every local job behind them.  ``repro.run(..., mode="dynamic")``
keeps using the event-driven executor with the scalar code path; this
adapter is the *planning* view of the same heuristics.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.scheduling.base import Assignment, Schedule, TIME_EPS
from repro.scheduling.frame import PartialScheduleFrame, plan, replan
from repro.workflow.costs import CostModel
from repro.workflow.dag import Workflow

__all__ = ["BatchPlanMixin"]


def _completion_candidates(
    job: str,
    workflow: Workflow,
    costs: CostModel,
    resources: Sequence[str],
    clock: float,
    resource_free: Mapping[str, float],
    data_location: Mapping[str, str],
) -> List[Assignment]:
    """All (resource, EST, ECT) candidates for one ready job."""
    candidates: List[Assignment] = []
    for rid in resources:
        data_ready = clock
        for pred in workflow.predecessors(job):
            pred_resource = data_location.get(pred)
            if pred_resource is None:
                raise ValueError(
                    f"job {job!r} is not ready: predecessor {pred!r} has no output yet"
                )
            transfer = costs.communication_cost(pred, job, pred_resource, rid)
            # The transfer starts at the decision time (dynamic strategy),
            # so the data is ready `transfer` after `clock` unless local.
            data_ready = max(data_ready, clock + transfer)
        start = max(float(resource_free.get(rid, 0.0)), data_ready, clock)
        duration = costs.computation_cost(job, rid)
        candidates.append(Assignment(job, rid, start, start + duration))
    return candidates


class BatchPlanMixin:
    """A batch-mapping heuristic: ``map_ready_jobs`` plus ``schedule``/``reschedule``.

    Subclasses provide ``selector(best_by_job) -> job`` (the classic
    Min-Min-family selector over ``{job: (sufferage, best_assignment)}``)
    and a ``name`` attribute.
    """

    @staticmethod
    def selector(best_by_job: Dict[str, Tuple[float, Assignment]]) -> str:
        raise NotImplementedError

    schedule = plan
    reschedule = replan

    def map_ready_jobs(
        self,
        ready_jobs: Sequence[str],
        workflow: Workflow,
        costs: CostModel,
        resources: Sequence[str],
        *,
        clock: float,
        resource_free: Mapping[str, float],
        data_location: Mapping[str, str],
    ) -> List[Assignment]:
        """Map one ready batch just in time (the dynamic executor's call).

        Until the batch is empty, every remaining job's best candidate is
        computed against the resources' current availability and the
        ``selector`` fixes one of them; the chosen resource is busy until
        that job's completion.
        """
        if not resources:
            raise ValueError("cannot map jobs on an empty resource set")
        free: Dict[str, float] = {rid: float(resource_free.get(rid, 0.0)) for rid in resources}
        remaining = list(dict.fromkeys(ready_jobs))
        assignments: List[Assignment] = []
        while remaining:
            best_by_job: Dict[str, Tuple[float, Assignment]] = {}
            for job in remaining:
                candidates = _completion_candidates(
                    job, workflow, costs, resources, clock, free, data_location
                )
                candidates.sort(key=lambda a: (a.finish, a.resource_id))
                best = candidates[0]
                second = candidates[1] if len(candidates) > 1 else candidates[0]
                best_by_job[job] = (second.finish - best.finish, best)
            chosen_job = self.selector(best_by_job)
            chosen = best_by_job[chosen_job][1]
            assignments.append(chosen)
            free[chosen.resource_id] = chosen.finish
            remaining.remove(chosen_job)
        return assignments

    def place(self, frame: PartialScheduleFrame) -> Schedule:
        workflow = frame.workflow
        costs = frame.costs
        finish_time: Dict[str, float] = {
            job: assignment.finish for job, assignment in frame.pinned.items()
        }
        location: Dict[str, str] = {
            job: assignment.resource_id for job, assignment in frame.pinned.items()
        }
        unmapped = set(frame.to_schedule)
        now = frame.clock
        while unmapped:
            ready = [
                job
                for job in frame.to_schedule
                if job in unmapped
                and all(
                    pred in finish_time and finish_time[pred] <= now + TIME_EPS
                    for pred in workflow.predecessors(job)
                )
            ]
            if not ready:
                pending = [
                    finish for finish in finish_time.values() if finish > now + TIME_EPS
                ]
                if not pending:  # pragma: no cover - guarded by DAG validation
                    raise RuntimeError("batch mapping stalled: no job is ready")
                now = min(pending)
                continue
            remaining = list(ready)
            while remaining:
                best_by_job: Dict[str, Tuple[float, Assignment]] = {}
                for job in remaining:
                    candidates: List[Assignment] = []
                    for rid in frame.resources:
                        data_ready = now
                        for pred in workflow.predecessors(job):
                            # dynamic-strategy rule: the transfer starts at
                            # the mapping decision, not at the producer's
                            # completion
                            transfer = costs.communication_cost(
                                pred, job, location[pred], rid
                            )
                            if now + transfer > data_ready:
                                data_ready = now + transfer
                        duration = costs.computation_cost(job, rid)
                        start = frame.timelines[rid].earliest_start(
                            data_ready, duration, insertion=True
                        )
                        candidates.append(Assignment(job, rid, start, start + duration))
                    candidates.sort(key=lambda a: (a.finish, a.resource_id))
                    best = candidates[0]
                    second = candidates[1] if len(candidates) > 1 else candidates[0]
                    best_by_job[job] = (second.finish - best.finish, best)
                chosen_job = self.selector(best_by_job)
                chosen = best_by_job[chosen_job][1]
                frame.place(chosen_job, chosen.resource_id, chosen.start, chosen.finish)
                finish_time[chosen_job] = chosen.finish
                location[chosen_job] = chosen.resource_id
                remaining.remove(chosen_job)
                unmapped.discard(chosen_job)
        return frame.schedule
