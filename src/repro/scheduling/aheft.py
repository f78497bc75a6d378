"""AHEFT — the paper's HEFT-based adaptive rescheduling algorithm (§3.4).

AHEFT recomputes an HEFT-style mapping for the *unfinished* part of a
workflow at an arbitrary time ``clock`` during its execution, taking into
account

* which jobs already finished (their actual finish times AFT and the
  resources holding their outputs),
* which jobs are currently running,
* which output transfers the Executor has already initiated under the
  previous schedule ``S0``,
* the resource pool *currently* available — including resources that joined
  after the previous schedule was made (the event that motivates the paper).

The placement rule is HEFT's minimum-EFT rule; the difference is how the
earliest start time is computed for a partially executed workflow, which is
exactly Equations (1)–(3) of the paper:

``FEA(n_m, n_i, r_j, S0, clock)`` — earliest time the output of predecessor
``n_m`` is available on candidate resource ``r_j``:

* **Case 1** — ``n_m`` finished on ``r_j``: the data is already local,
  ``FEA = AFT(n_m)``.
* **Case 2** — ``n_m`` finished elsewhere and its output is *not* (being)
  transferred to ``r_j``: the transfer can only start now,
  ``FEA = clock + c_{m,i}``.
* **Case 3** — ``n_m`` is unfinished and mapped to ``r_j`` (either pinned
  there because it is running, or placed there earlier in this very
  rescheduling pass): ``FEA = SFT(n_m)``.
* **otherwise** — ``n_m`` is unfinished and mapped to a different resource:
  ``FEA = SFT(n_m) + c_{m,i}``.

When ``clock == 0`` and no job has executed, every predecessor falls into
Case 3 / otherwise and AHEFT reduces to plain HEFT — the identity the paper
notes in §3.4 and that the test-suite asserts.

Implementation
--------------
AHEFT is a :class:`~repro.scheduling.frame.PartialScheduleFrame` — which
pins the executed history, builds the timelines and answers FEA queries —
placed in upward-rank order by the same min-EFT loop as static HEFT
(:func:`repro.scheduling.heft._place_by_rank`).  Rescheduling happens at
*every* resource-pool event, so that loop runs on the frame's fast kernel:
memoized priority orders (reused whenever the DAG and pool are unchanged
between events), dense computation-cost rows, and — for cost models with
placement-independent transfer costs — per-predecessor FEA defaults with a
handful of per-resource overrides (data already local / transfer under
way), so the candidate loop touches the cost model zero times.
Bit-identical to the frozen seed kernel kept as a test oracle in
``benchmarks/_seed_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.scheduling.base import ExecutionState, Schedule
from repro.scheduling.frame import BusyIntervals, PartialScheduleFrame
from repro.scheduling.heft import _place_by_rank
from repro.workflow.costs import CostModel
from repro.workflow.dag import Workflow

__all__ = ["aheft_reschedule", "AHEFTScheduler"]


def aheft_reschedule(
    workflow: Workflow,
    costs: CostModel,
    resources: Sequence[str],
    *,
    clock: float = 0.0,
    previous_schedule: Optional[Schedule] = None,
    execution_state: Optional[ExecutionState] = None,
    insertion: bool = True,
    respect_running: bool = True,
    resource_available_from: Optional[Mapping[str, float]] = None,
    busy: Optional[BusyIntervals] = None,
    name: str = "aheft",
) -> Schedule:
    """(Re)schedule a workflow at time ``clock`` with AHEFT.

    Parameters
    ----------
    workflow, costs:
        The DAG and the estimation matrix ``P`` (refreshed by the Predictor
        before each call, paper Fig. 2 line 5).
    resources:
        The resources available **now** (set ``R`` after the pool update of
        Fig. 2 line 3).
    clock:
        The logical time of the rescheduling decision.
    previous_schedule:
        The schedule ``S0`` currently being executed (None for the initial
        scheduling, in which case AHEFT is identical to HEFT).
    execution_state:
        Snapshot of what has executed so far.  When omitted it is derived
        from ``previous_schedule`` under the accurate-estimate assumption.
    respect_running:
        If True (default), jobs that already started keep their resource and
        scheduled finish time; only not-started jobs are re-mapped.  If
        False, running jobs are also re-mapped (they restart from ``clock``,
        losing the work done so far).
    resource_available_from:
        Optional per-resource earliest usable time; defaults to ``clock``
        for every resource.
    busy:
        Optional foreign occupied spans per resource — the residual-capacity
        view of a shared grid where other workflows (other tenants) already
        booked slots on the same timelines.  Placement plans around them;
        they never appear in the returned schedule.  ``None`` (default) is
        the dedicated-grid behaviour, bit-identical to the seed kernel.

    Returns
    -------
    Schedule
        A complete schedule containing the (actual) assignments of finished
        and pinned jobs plus new assignments for every re-mapped job.  Its
        :meth:`~repro.scheduling.base.Schedule.makespan` is the predicted
        makespan used by the Planner's accept-if-better rule.
    """
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
    return _place_by_rank(frame, insertion=insertion)


@dataclass
class AHEFTScheduler:
    """Object wrapper exposing AHEFT through the common scheduler interface.

    ``schedule()`` performs the initial scheduling (identical to HEFT);
    ``reschedule()`` performs the adaptive step at a later clock value.
    """

    insertion: bool = True
    respect_running: bool = True
    name: str = "AHEFT"

    def schedule(
        self,
        workflow: Workflow,
        costs: CostModel,
        resources: Sequence[str],
        *,
        resource_available_from: Optional[Mapping[str, float]] = None,
        busy: Optional[BusyIntervals] = None,
    ) -> Schedule:
        return aheft_reschedule(
            workflow,
            costs,
            resources,
            clock=0.0,
            previous_schedule=None,
            execution_state=None,
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
        execution_state: Optional[ExecutionState] = None,
        resource_available_from: Optional[Mapping[str, float]] = None,
        busy: Optional[BusyIntervals] = None,
    ) -> Schedule:
        return aheft_reschedule(
            workflow,
            costs,
            resources,
            clock=clock,
            previous_schedule=previous_schedule,
            execution_state=execution_state,
            insertion=self.insertion,
            respect_running=self.respect_running,
            resource_available_from=resource_available_from,
            busy=busy,
            name=self.name,
        )
