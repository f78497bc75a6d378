"""Admission control in front of the multi-tenant planner.

The shared grid (:mod:`repro.simulation.shared_grid`) admits every arrival
unconditionally: under a flash crowd the planner keeps booking ever-later
slots and the stretch of late arrivals grows without bound.  The
:class:`AdmissionController` sits in front of
:meth:`~repro.core.multi_tenant.MultiTenantPlanner.register` and turns that
regime into a measured one.  For each arrival it plans tentatively
(without registering) and gates on two predictions, in this order:

* **predicted saturation** — the fraction of the grid's capacity over the
  lookahead window ``[clock, clock + dedicated_span]`` already booked by
  admitted workflows.  Saturation above ``saturation_threshold`` means the
  newcomer would mostly queue, not run;
* **predicted stretch** — the completion of the plan around the other
  workflows' bookings relative to the span the workflow would need alone
  (``(makespan - arrival.time) / dedicated_span``).  A value above
  ``stretch_limit`` means the grid cannot give the workflow acceptable
  service *right now* even if a slot exists.

Saturation needs only the busy-free dedicated plan, so it is read first;
the plan around the bookings is made only when saturation leaves the
offer open (on a flash crowd, saturation alone decides most offers).
An offer the saturation gate decided records ``predicted_stretch=None``:
the plan it would be read from is never made.

An arrival failing either gate is **deferred** — the executor re-offers
it when capacity is predicted to free up (the earliest incumbent
completion, or the next pool membership change) — and after
``max_deferrals`` unsuccessful offers it is **rejected** outright.
Every decision is recorded as an :class:`AdmissionDecision`, so
rejection/deferral rates and the observed saturation are first-class run
metrics rather than post-hoc reconstructions.

The controller only *reads* planner state: it plans through
:meth:`~repro.core.multi_tenant.MultiTenantPlanner.plan_arrival`, whose
``gate`` hook runs the saturation test between the two plans, and
measures saturation on the busy view the offer is planned against (a
snapshot of the planner's booking directory, read lane by lane through
:meth:`~repro.scheduling.bookings.BusyView.saturation`, not a fresh
walk of the admitted schedules).  Admitting remains the planner's job,
so disabling admission control leaves the planner's behaviour
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.scheduling.base import TIME_EPS
from repro.scheduling.bookings import BusyIntervals, as_busy_view
from repro.workload.streams import WorkflowArrival

__all__ = [
    "AdmissionConfig",
    "AdmissionDecision",
    "AdmissionController",
    "predicted_saturation",
]


@dataclass(frozen=True)
class AdmissionConfig:
    """Gates of the admission controller.

    Parameters
    ----------
    saturation_threshold:
        Booked fraction of the lookahead window above which the grid
        counts as saturated (0.85 = arrivals are deferred once >85% of
        the near-term capacity is spoken for).
    stretch_limit:
        Maximum acceptable predicted stretch of the tentative plan.
    max_deferrals:
        Offers an arrival may fail before it is rejected outright.
    min_window:
        Floor of the saturation lookahead window, guarding against
        degenerate (near-zero) dedicated spans.
    """

    saturation_threshold: float = 0.85
    stretch_limit: float = 4.0
    max_deferrals: int = 4
    min_window: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.saturation_threshold <= 1.0:
            raise ValueError("saturation_threshold must be in (0, 1]")
        if self.stretch_limit < 1.0:
            raise ValueError("stretch_limit must be at least 1.0")
        if self.max_deferrals < 0:
            raise ValueError("max_deferrals must be non-negative")
        if self.min_window <= 0.0:
            raise ValueError("min_window must be positive")


@dataclass(frozen=True)
class AdmissionDecision:
    """One admit/defer/reject verdict, with the evidence it rested on."""

    time: float
    key: str
    tenant: str
    action: str  # "admit" | "defer" | "reject"
    saturation: float
    #: ``None`` when the saturation gate decided the offer: the plan the
    #: stretch is read from is never made then
    predicted_stretch: Optional[float]
    #: failed offers *before* this decision (0 on the first offer)
    deferrals: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "key": self.key,
            "tenant": self.tenant,
            "action": self.action,
            "saturation": self.saturation,
            "predicted_stretch": self.predicted_stretch,
            "deferrals": self.deferrals,
        }


def predicted_saturation(
    busy: BusyIntervals,
    resource_count: int,
    clock: float,
    window: float,
) -> float:
    """Booked fraction of ``resource_count`` resources over ``[clock, clock+window]``.

    ``busy`` is the planner's busy view (bookings per resource id) or any
    plain mapping of spans; same-resource spans that touch within
    ``TIME_EPS`` are merged before clipping so perf-repair transients
    cannot count a slot twice, and the clipped groups are summed resource
    by resource in the view's order.  Returns a value in ``[0, 1]`` (0.0
    for an empty grid or a degenerate window).
    """
    return as_busy_view(busy).saturation(resource_count, clock, window)


class AdmissionController:
    """Stateful admit/defer/reject gate over one shared-grid run."""

    def __init__(self, config: Optional[AdmissionConfig] = None) -> None:
        self.config = config or AdmissionConfig()
        self.decisions: List[AdmissionDecision] = []
        #: open deferral chains: key -> (submission time, failed offers).
        #: The submission time identifies the arrival *instance*: an entry
        #: left behind by an abandoned chain (a deferred arrival that was
        #: never re-offered) must not bias a later arrival reusing the
        #: same key, and terminal decisions (admit/reject/supersession)
        #: prune the entry so long arrival streams cannot grow this dict
        #: without bound.
        self._deferrals: Dict[str, Tuple[float, int]] = {}

    # ------------------------------------------------------------------
    def evaluate(
        self,
        planner,
        arrival: WorkflowArrival,
        clock: float,
        *,
        can_defer: bool = True,
    ):
        """Offer ``arrival`` to the grid at ``clock``.

        Returns ``(action, planned)`` where ``action`` is ``"admit"``,
        ``"defer"`` or ``"reject"`` and ``planned`` is the tentative
        :class:`~repro.core.multi_tenant.PlannedArrival` (``None`` when
        the pool was empty).  On ``"admit"`` the caller registers the
        plan with the planner; on ``"defer"`` it re-offers later.
        ``can_defer=False`` (no retry point exists) escalates a deferral
        to a rejection.
        """
        config = self.config
        entry = self._deferrals.get(arrival.key)
        if entry is not None and entry[0] != arrival.time:
            # stale chain: a different arrival instance (re-submission or
            # replayed stream) reuses the key, so the abandoned entry is
            # terminal — prune it instead of inheriting its offer count
            del self._deferrals[arrival.key]
            entry = None
        prior = entry[1] if entry is not None else 0
        resources = planner.pool.available_at(clock)
        if not resources:
            # momentarily empty pool: nothing to plan against, so the
            # saturation evidence is definitional (everything is booked)
            action = self._throttle_action(arrival, prior, can_defer)
            self._record(arrival, clock, action, 1.0, float("inf"), prior)
            return action, None
        # the gate runs once the dedicated plan is made: saturation alone
        # decides most offers, so the plan around the other workflows'
        # bookings is made only for the offers it leaves open; plan_arrival
        # calls it exactly once, which sets ``saturation``
        saturation = 1.0

        def saturation_gate(dedicated_span: float, busy) -> bool:
            nonlocal saturation
            window = max(dedicated_span, config.min_window)
            # planning registers nothing, so the view is still the grid's
            # residual at ``clock``
            saturation = predicted_saturation(busy, len(resources), clock, window)
            return saturation <= config.saturation_threshold

        planned = planner.plan_arrival(arrival, clock, gate=saturation_gate)
        if planned.schedule is None:
            predicted_stretch = None
            admit = False
        else:
            predicted_stretch = (planned.schedule.makespan() - arrival.time) / max(
                planned.dedicated_span, TIME_EPS
            )
            admit = predicted_stretch <= config.stretch_limit
        if admit:
            action = "admit"
            self._deferrals.pop(arrival.key, None)
        else:
            action = self._throttle_action(arrival, prior, can_defer)
        self._record(arrival, clock, action, saturation, predicted_stretch, prior)
        return action, planned

    def _throttle_action(
        self, arrival: WorkflowArrival, prior: int, can_defer: bool
    ) -> str:
        if not can_defer or prior >= self.config.max_deferrals:
            self._deferrals.pop(arrival.key, None)
            return "reject"
        self._deferrals[arrival.key] = (arrival.time, prior + 1)
        return "defer"

    # ------------------------------------------------------------------
    # deferral-chain bookkeeping
    # ------------------------------------------------------------------
    @property
    def pending_deferrals(self) -> Dict[str, int]:
        """Open deferral chains: key -> failed offers so far.

        Terminal decisions (admit, reject) prune their entry, so outside
        a defer→re-offer window this is empty; anything lingering here is
        an arrival the caller deferred and never brought back.
        """
        return {key: count for key, (_, count) in self._deferrals.items()}

    def forget(self, key: str) -> None:
        """Drop the open deferral chain for ``key``, if any.

        Callers driving :meth:`evaluate` directly (outside
        :class:`~repro.simulation.shared_grid.SharedGridExecutor`, which
        always re-offers) must call this when they abandon a deferred
        arrival, so the controller's per-key state cannot grow without
        bound over a long-lived stream.
        """
        self._deferrals.pop(key, None)

    def _record(
        self,
        arrival: WorkflowArrival,
        clock: float,
        action: str,
        saturation: float,
        predicted_stretch: Optional[float],
        prior: int,
    ) -> None:
        self.decisions.append(
            AdmissionDecision(
                time=clock,
                key=arrival.key,
                tenant=arrival.tenant,
                action=action,
                saturation=saturation,
                predicted_stretch=predicted_stretch,
                deferrals=prior,
            )
        )

    # ------------------------------------------------------------------
    # run-level summaries
    # ------------------------------------------------------------------
    @property
    def deferral_count(self) -> int:
        """Total failed offers (an arrival deferred twice counts twice)."""
        return sum(1 for d in self.decisions if d.action == "defer")

    @property
    def rejected_keys(self) -> List[str]:
        return [d.key for d in self.decisions if d.action == "reject"]

    @property
    def rejected_count(self) -> int:
        return len(self.rejected_keys)
