"""Resource-pool dynamics: the paper's (R, Δ, δ) change model.

Paper §4.2 models grid dynamics with three parameters:

* ``R`` — initial resource pool size,
* ``Δ`` (``interval``) — time between resource-pool changes; larger Δ means
  a less dynamic grid,
* ``δ`` (``fraction``) — the fraction of the *initial* pool size that joins
  at each change event.

Per the experiment-design assumptions (§4.1) only resource *additions* are
exercised in the paper's evaluation; ``leave_fraction`` (default zero)
additionally retires resources, and departures are honoured **end to end**:
the executors kill jobs running on a departing resource (recording the
partial execution as wasted work) and re-dispatch them, and the adaptive
Planner treats a plan with unfinished work on a departed resource as
infeasible and replans unconditionally — see
:mod:`repro.simulation.executor` for the full departure semantics.

For richer dynamics than the (R, Δ, δ) model (busy-resource departures,
performance degradation, load spikes, churn) use the scenario engine:
:meth:`ResourceChangeModel.to_scenario` bridges this model into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.resources.pool import ResourcePool
from repro.resources.resource import Resource
from repro.utils.checks import require_finite

__all__ = ["ResourceChangeModel", "StaticResourceModel"]


@dataclass(frozen=True)
class ResourceChangeModel:
    """Generator of dynamically growing resource pools.

    Parameters
    ----------
    initial_size:
        ``R`` — number of resources available at time 0.
    interval:
        ``Δ`` — logical time between consecutive change events.
    fraction:
        ``δ`` — each event adds ``ceil(δ · R)`` new resources.
    max_events:
        Number of change events to materialise.  The executor stops
        consuming events once the workflow finishes, so this only needs to
        exceed ``makespan / Δ``; the default (64) is generous for every
        configuration in the paper.
    leave_fraction:
        Optional fraction of the initial pool that *leaves* at each event
        (0 reproduces the paper's evaluation).
    name_prefix:
        Prefix for generated resource identifiers.
    """

    initial_size: int
    interval: float
    fraction: float
    max_events: int = 64
    leave_fraction: float = 0.0
    name_prefix: str = "r"

    def __post_init__(self) -> None:
        if self.initial_size <= 0:
            raise ValueError("initial_size must be positive")
        for name in ("interval", "fraction", "leave_fraction"):
            require_finite(name, getattr(self, name))
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.fraction < 0:
            raise ValueError("fraction must be non-negative")
        if self.leave_fraction < 0 or self.leave_fraction > 1:
            raise ValueError("leave_fraction must be in [0, 1]")
        if self.max_events < 0:
            raise ValueError("max_events must be non-negative")

    @property
    def added_per_event(self) -> int:
        """Number of resources joining at each change event: ``ceil(δ·R)``."""
        if self.fraction == 0:
            return 0
        return max(1, math.ceil(self.fraction * self.initial_size))

    @property
    def removed_per_event(self) -> int:
        if self.leave_fraction == 0:
            return 0
        return max(1, math.ceil(self.leave_fraction * self.initial_size))

    def build_pool(self) -> ResourcePool:
        """Materialise the pool: R initial resources plus joins every Δ.

        Resource identifiers are ``r1..rR`` for the initial pool and
        ``rR+1, …`` for later arrivals, tagged with the event index in their
        metadata.  Removals (if ``leave_fraction > 0``) retire the oldest
        still-present initial resources, mirroring a grid where the original
        donation expires.
        """
        pool = ResourcePool()
        counter = 0
        for _ in range(self.initial_size):
            counter += 1
            pool.add(Resource(f"{self.name_prefix}{counter}", available_from=0.0))

        removable = [f"{self.name_prefix}{i + 1}" for i in range(self.initial_size)]
        removed: set[str] = set()
        for event_index in range(1, self.max_events + 1):
            when = event_index * self.interval
            for _ in range(self.added_per_event):
                counter += 1
                pool.add(
                    Resource(
                        f"{self.name_prefix}{counter}",
                        available_from=when,
                        metadata={"event_index": event_index},
                    )
                )
            # Departures are an extension hook; they replace still-available
            # initial resources with a bounded availability window.
            for _ in range(self.removed_per_event):
                candidates = [rid for rid in removable if rid not in removed]
                if not candidates:
                    break
                victim = candidates[0]
                removed.add(victim)
        if removed:
            # Rebuild the pool with availability windows on the victims.
            rebuilt = ResourcePool()
            for rid in pool.all_resource_ids():
                res = pool.resource(rid)
                if rid in removed:
                    # retire after the first event following its join
                    leave_at = max(res.available_from + self.interval, self.interval)
                    rebuilt.add(
                        Resource(
                            rid,
                            available_from=res.available_from,
                            available_until=leave_at,
                            site=res.site,
                            metadata=dict(res.metadata),
                        )
                    )
                else:
                    rebuilt.add(res)
            return rebuilt
        return pool

    def to_scenario(self):
        """This change model as a composable scenario-engine scenario.

        The join stream maps to
        :class:`~repro.scenarios.library.PaperJoinScenario`; a non-zero
        ``leave_fraction`` adds a
        :class:`~repro.scenarios.library.DepartureScenario` with the same
        Δ.  Note the scenario engine picks departure victims uniformly
        among *all* present resources (busy ones included), whereas
        :meth:`build_pool` retires the oldest initial resources — the
        scenario form is the harsher, more general reading of the same
        parameters.
        """
        from repro.scenarios.library import DepartureScenario, PaperJoinScenario

        paper = PaperJoinScenario(
            interval=self.interval, fraction=self.fraction, max_events=self.max_events
        )
        if self.leave_fraction == 0:
            return paper
        return paper + DepartureScenario(
            interval=self.interval,
            fraction=self.leave_fraction,
            max_events=self.max_events,
        )

    def describe(self) -> str:
        """One-line human readable description (used by experiment reports)."""
        return (
            f"R={self.initial_size}, Δ={self.interval:g}, δ={self.fraction:g}"
            + (f", leave={self.leave_fraction:g}" if self.leave_fraction else "")
        )


@dataclass(frozen=True)
class StaticResourceModel:
    """A pool that never changes — the classic static-scheduling world view."""

    size: int
    name_prefix: str = "r"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")

    def build_pool(self) -> ResourcePool:
        pool = ResourcePool()
        for index in range(self.size):
            pool.add(Resource(f"{self.name_prefix}{index + 1}", available_from=0.0))
        return pool

    def to_scenario(self):
        """The empty event stream — scenario-engine form of a static pool."""
        from repro.scenarios.library import StaticScenario

        return StaticScenario()

    def describe(self) -> str:
        return f"R={self.size} (static)"
