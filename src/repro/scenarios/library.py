"""Concrete scenarios and the named-scenario registry.

Each scenario relaxes one assumption of the paper's experiment design
(§4.1); the registry names are what ``repro sweep --scenario <name>`` and
the experiment configs accept:

================  ==========================================================
``static``        no events at all — the classic static-scheduling world
``paper``         the paper's (R, Δ, δ) model: joins only (assumption 3)
``departures``    resources *leave* every Δ, including busy ones
``degradation``   a fraction of the pool degrades (and later recovers)
``load_spike``    a pool-wide slowdown window (external load burst)
``churn``         joins and departures interleave every Δ
``flash_crowd``   a large join burst followed by mass departure of the
                  newcomers' worth of capacity
================  ==========================================================

Every scenario is a frozen dataclass of plain numbers, so scenario objects
pickle cleanly across the parallel sweep workers and serialise into the
benchmark ledgers via :meth:`~repro.scenarios.base.Scenario.params`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.scenarios.base import (
    Scenario,
    ScenarioContext,
    ScenarioError,
    ScenarioEvent,
)

__all__ = [
    "StaticScenario",
    "PaperJoinScenario",
    "DepartureScenario",
    "JoinBurstScenario",
    "ChurnScenario",
    "DegradationScenario",
    "LoadSpikeScenario",
    "register_scenario",
]


def _per_event(fraction: float, initial_size: int) -> int:
    """The paper's ``ceil(δ·R)`` rule, with δ=0 meaning none."""
    if fraction == 0:
        return 0
    return max(1, math.ceil(fraction * initial_size))


@dataclass(frozen=True)
class StaticScenario(Scenario):
    """No dynamics: the pool at time 0 is the pool forever."""

    name = "static"

    def events(self, ctx: ScenarioContext) -> List[ScenarioEvent]:
        return []


@dataclass(frozen=True)
class PaperJoinScenario(Scenario):
    """The paper's (R, Δ, δ) change model: ``ceil(δ·R)`` joins every Δ."""

    interval: float = 400.0
    fraction: float = 0.15
    max_events: int = 64

    name = "paper"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ScenarioError("interval must be positive")
        if self.fraction < 0:
            raise ScenarioError("fraction must be non-negative")

    def events(self, ctx: ScenarioContext) -> List[ScenarioEvent]:
        join = _per_event(self.fraction, ctx.initial_size)
        if join == 0:
            return []
        return [
            ScenarioEvent(time=index * self.interval, join=join)
            for index in range(1, self.max_events + 1)
            if index * self.interval <= ctx.horizon
        ]


@dataclass(frozen=True)
class DepartureScenario(Scenario):
    """Resources *leave* every Δ — the inverse of the paper's model.

    Departures pick uniformly among the present resources, so busy
    resources depart too: their running jobs are killed (wasted work) and
    the strategies must recover.  ``max_events`` bounds the bleed so the
    materialiser's never-below-one-resource clamp is rarely hit.
    """

    interval: float = 400.0
    fraction: float = 0.10
    start: float = 0.0
    max_events: int = 8

    name = "departures"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ScenarioError("interval must be positive")
        if self.fraction < 0:
            raise ScenarioError("fraction must be non-negative")
        if self.start < 0:
            raise ScenarioError("start must be non-negative")

    def events(self, ctx: ScenarioContext) -> List[ScenarioEvent]:
        leave = _per_event(self.fraction, ctx.initial_size)
        if leave == 0:
            return []
        return [
            ScenarioEvent(time=self.start + index * self.interval, leave=leave)
            for index in range(1, self.max_events + 1)
            if self.start + index * self.interval <= ctx.horizon
        ]


@dataclass(frozen=True)
class JoinBurstScenario(Scenario):
    """A one-off flash-crowd arrival: ``ceil(δ·R)`` resources at once."""

    at: float = 400.0
    fraction: float = 1.0

    name = "join_burst"

    def __post_init__(self) -> None:
        if self.at <= 0:
            raise ScenarioError("at must be positive")
        if self.fraction < 0:
            raise ScenarioError("fraction must be non-negative")

    def events(self, ctx: ScenarioContext) -> List[ScenarioEvent]:
        join = _per_event(self.fraction, ctx.initial_size)
        if join == 0 or self.at > ctx.horizon:
            return []
        return [ScenarioEvent(time=self.at, join=join)]


@dataclass(frozen=True)
class ChurnScenario(Scenario):
    """Joins *and* departures at every change event.

    With ``join_fraction > leave_fraction`` the grid slowly grows through
    the churn; with equal fractions its size oscillates around R while its
    membership keeps rotating — the hostile version of the paper's model.
    """

    interval: float = 400.0
    join_fraction: float = 0.15
    leave_fraction: float = 0.10
    max_events: int = 12

    name = "churn"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ScenarioError("interval must be positive")
        if self.join_fraction < 0 or self.leave_fraction < 0:
            raise ScenarioError("fractions must be non-negative")

    def events(self, ctx: ScenarioContext) -> List[ScenarioEvent]:
        join = _per_event(self.join_fraction, ctx.initial_size)
        leave = _per_event(self.leave_fraction, ctx.initial_size)
        if join == 0 and leave == 0:
            return []
        return [
            ScenarioEvent(time=index * self.interval, join=join, leave=leave)
            for index in range(1, self.max_events + 1)
            if index * self.interval <= ctx.horizon
        ]


@dataclass(frozen=True)
class DegradationScenario(Scenario):
    """Part of the pool slows down at ``at`` and recovers at ``recover_at``.

    ``factor`` multiplies computation time (2.0 = half speed).  With
    ``recover_at = None`` the degradation is permanent.
    """

    at: float = 400.0
    fraction: float = 0.3
    factor: float = 2.0
    recover_at: float | None = 1600.0

    name = "degradation"

    def __post_init__(self) -> None:
        if self.at <= 0:
            raise ScenarioError("at must be positive")
        if self.fraction <= 0 or self.fraction > 1:
            raise ScenarioError("fraction must be in (0, 1]")
        if self.factor <= 0:
            raise ScenarioError("factor must be positive")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ScenarioError("recover_at must be after at")

    def events(self, ctx: ScenarioContext) -> List[ScenarioEvent]:
        count = _per_event(self.fraction, ctx.initial_size)
        if self.at > ctx.horizon:
            return []
        group = f"degradation@{self.at:g}"
        out = [ScenarioEvent(time=self.at, perf=((count, self.factor, group),))]
        if self.recover_at is not None and self.recover_at <= ctx.horizon:
            # same selection group: the recovery restores exactly the
            # resources that degraded (and are still present)
            out.append(
                ScenarioEvent(time=self.recover_at, perf=((count, 1.0, group),))
            )
        return out


@dataclass(frozen=True)
class LoadSpikeScenario(Scenario):
    """A pool-wide slowdown window: external load hits every resource."""

    start: float = 400.0
    duration: float = 800.0
    factor: float = 1.5

    name = "load_spike"

    def __post_init__(self) -> None:
        if self.start <= 0:
            raise ScenarioError("start must be positive")
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        if self.factor <= 0:
            raise ScenarioError("factor must be positive")

    def events(self, ctx: ScenarioContext) -> List[ScenarioEvent]:
        if self.start > ctx.horizon:
            return []
        group = f"load_spike@{self.start:g}"
        out = [ScenarioEvent(time=self.start, perf=((-1, self.factor, group),))]
        end = self.start + self.duration
        if end <= ctx.horizon:
            out.append(ScenarioEvent(time=end, perf=((-1, 1.0, group),)))
        return out


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[..., Scenario]] = {}
_SUMMARIES: Dict[str, str] = {}


def register_scenario(name: str, summary: str = ""):
    """Register ``factory`` under ``name`` for configs and the CLI."""

    def decorator(factory: Callable[..., Scenario]):
        if name in _REGISTRY:
            raise ScenarioError(f"scenario {name!r} already registered")
        _REGISTRY[name] = factory
        _SUMMARIES[name] = summary
        return factory

    return decorator


register_scenario("static", "no pool changes at all (classic static world)")(
    StaticScenario
)
register_scenario("paper", "the paper's join-only (R, Δ, δ) model")(
    PaperJoinScenario
)
register_scenario("departures", "resources leave every Δ, busy ones included")(
    DepartureScenario
)
register_scenario("join_burst", "one flash-crowd arrival of ceil(δ·R) resources")(
    JoinBurstScenario
)
register_scenario("churn", "joins and departures interleave every Δ")(ChurnScenario)
register_scenario(
    "degradation", "part of the pool slows down, later recovers"
)(DegradationScenario)
register_scenario("load_spike", "pool-wide slowdown window (external load)")(
    LoadSpikeScenario
)


@register_scenario(
    "flash_crowd", "join burst at Δ, the same capacity departs at 4Δ"
)
def _flash_crowd(
    interval: float = 400.0, fraction: float = 0.5
) -> Scenario:
    """A flash crowd: a big arrival whose capacity later walks away again."""
    burst = JoinBurstScenario(at=interval, fraction=fraction)
    exodus = DepartureScenario(
        interval=interval,
        fraction=fraction,
        start=3 * interval,
        max_events=1,
    )
    composed = burst + exodus
    composed.name = "flash_crowd"
    return composed
