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
(:func:`repro.scheduling.heft._place_by_rank`); the frame-building driver
:func:`~repro.scheduling.frame.replan` documents the parameters.
Rescheduling happens at *every* resource-pool event, so that loop runs on
the frame's fast kernel: memoized priority orders (reused whenever the DAG
and pool are unchanged between events), dense computation-cost rows, and —
for cost models with placement-independent transfer costs —
per-predecessor FEA defaults with a handful of per-resource overrides
(data already local / transfer under way), so the candidate loop touches
the cost model zero times.
Bit-identical to the frozen seed kernel kept as a test oracle in
``benchmarks/_seed_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scheduling.base import Schedule
from repro.scheduling.frame import PartialScheduleFrame, plan, replan
from repro.scheduling.heft import _place_by_rank

__all__ = ["AHEFTScheduler"]


@dataclass
class AHEFTScheduler:
    """AHEFT through the common scheduler interface.

    ``schedule()`` performs the initial scheduling (identical to HEFT);
    ``reschedule()`` performs the adaptive step at a later clock value
    (see :func:`~repro.scheduling.frame.replan`).  ``insertion`` selects
    HEFT's insertion-based slot search (default) or append-only placement.
    """

    insertion: bool = True
    name: str = "AHEFT"

    schedule = plan
    reschedule = replan

    def place(self, frame: PartialScheduleFrame) -> Schedule:
        return _place_by_rank(frame, insertion=self.insertion)
