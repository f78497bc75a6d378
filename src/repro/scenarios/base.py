"""The scenario engine: composable event streams of resource-pool dynamics.

The paper evaluates AHEFT only under its benign (R, Δ, δ) change model —
resources *join* the grid and nothing else (§4.1 assumption 3).  The
scenario engine generalises that model into a small algebra of *event
streams* so the same sweeps can be re-run under adversarial dynamics:

* a :class:`Scenario` generates an abstract stream of
  :class:`ScenarioEvent` values (joins, departures, per-resource
  performance changes) from a :class:`ScenarioContext`,
* scenarios *compose*: ``a + b`` merges both streams chronologically,
* :func:`materialize` turns a scenario into a concrete
  :class:`ScenarioRun` — a :class:`~repro.resources.pool.ResourcePool`
  with availability windows, a :class:`PerformanceProfile` of
  piecewise-constant per-resource speed factors, and the validated event
  stream the adaptive Planner replans on.

Validation guarantees every materialised stream is *physically possible*:
event times are non-negative and non-decreasing, departures only remove
resources that are present, and the pool never drops below one resource
(the grid never goes empty mid-run).  :func:`validate_events` raises
:class:`ScenarioError` otherwise; the property-based tests in
``tests/test_scenarios.py`` exercise it on random compositions.

Performance changes are modelled as multiplicative *slowdown factors* on a
resource's computation time (1.0 = nominal, 2.0 = twice as slow, 0.5 =
twice as fast).  :class:`ScaledCostModel` exposes a factor snapshot as a
regular :class:`~repro.workflow.costs.CostModel`, so the Planner replans
with degraded estimates through the same fast scheduling kernel.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.resources.pool import PoolEvent, ResourcePool
from repro.resources.resource import Resource
from repro.utils.rng import spawn_rng
from repro.workflow.costs import CostModel, DelegatingCostModel

__all__ = [
    "ScenarioError",
    "ScenarioEvent",
    "ScenarioContext",
    "Scenario",
    "ComposedScenario",
    "PerformanceProfile",
    "ScaledCostModel",
    "ScenarioRun",
    "validate_events",
    "materialize",
]


class ScenarioError(ValueError):
    """An event stream that is not physically realisable."""


@dataclass(frozen=True)
class ScenarioEvent:
    """One abstract change of the grid at logical time ``time``.

    Parameters
    ----------
    time:
        Logical time of the change (must be positive: time 0 is the initial
        pool, not an event).
    join:
        Number of new resources joining the grid.
    leave:
        Number of present resources departing.  Which concrete resources
        depart is decided at materialisation time (deterministically, from
        the scenario seed); departures may hit *busy* resources — the
        executors kill the affected jobs and the Planner replans.
    perf:
        ``(count, factor)`` or ``(count, factor, group)`` entries: ``count``
        present resources have their computation-time multiplier set to
        ``factor`` from ``time`` onward (1.0 restores nominal speed).
        ``count = -1`` means *every* present resource (a pool-wide load
        spike).  A non-empty ``group`` names the selection: the first event
        using a group picks (and remembers) the concrete resources, later
        events with the same group re-target exactly that set — how a
        recovery restores precisely the resources that degraded.
    """

    time: float
    join: int = 0
    leave: int = 0
    perf: Tuple[Tuple, ...] = ()

    def __post_init__(self) -> None:
        if self.time <= 0:
            raise ScenarioError("event time must be positive")
        if self.join < 0 or self.leave < 0:
            raise ScenarioError("join/leave counts must be non-negative")
        for entry in self.perf:
            if len(entry) not in (2, 3):
                raise ScenarioError(
                    "perf entries must be (count, factor[, group]) tuples"
                )
            count, factor = entry[0], entry[1]
            if count < -1:
                raise ScenarioError("perf count must be >= -1 (-1 = whole pool)")
            if factor <= 0:
                raise ScenarioError("perf factor must be positive")

    @property
    def is_noop(self) -> bool:
        return self.join == 0 and self.leave == 0 and not self.perf


@dataclass(frozen=True)
class ScenarioContext:
    """Everything a scenario needs to generate its event stream.

    ``initial_size`` is the paper's ``R``; ``horizon`` bounds the stream in
    time (events past the horizon are pointless — the workflow will have
    finished); ``seed`` drives every random choice so a scenario run is
    reproducible from ``(scenario, context)`` alone.
    """

    initial_size: int
    horizon: float = 8000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.initial_size <= 0:
            raise ScenarioError("initial_size must be positive")
        if self.horizon <= 0:
            raise ScenarioError("horizon must be positive")


class Scenario(abc.ABC):
    """A named generator of abstract grid-dynamics event streams."""

    #: registry/CLI identifier; concrete classes override it.
    name: str = "scenario"

    @abc.abstractmethod
    def events(self, ctx: ScenarioContext) -> List[ScenarioEvent]:
        """The abstract event stream for ``ctx`` (any order; merged later)."""

    def params(self) -> Dict[str, object]:
        """JSON-friendly parameters for ledgers (dataclass fields by default)."""
        fields = getattr(self, "__dataclass_fields__", None)
        if fields is None:
            return {}
        return {key: getattr(self, key) for key in fields}

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{self.name}({inner})"

    def __add__(self, other: "Scenario") -> "ComposedScenario":
        return compose(self, other)


class ComposedScenario(Scenario):
    """The chronological merge of several scenarios' event streams.

    Same-time events from different parts are merged into one
    :class:`ScenarioEvent` (joins and leaves add up, perf changes
    concatenate in part order), which is how two scenarios interact: e.g.
    ``paper-joins + departures`` yields churn where an event may both add
    and remove resources.
    """

    name = "composed"

    def __init__(self, parts: Sequence[Scenario]) -> None:
        flattened: List[Scenario] = []
        for part in parts:
            if isinstance(part, ComposedScenario):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if not flattened:
            raise ScenarioError("a composed scenario needs at least one part")
        self.parts: Tuple[Scenario, ...] = tuple(flattened)
        self.name = "+".join(part.name for part in self.parts)

    def events(self, ctx: ScenarioContext) -> List[ScenarioEvent]:
        merged: Dict[float, Dict[str, object]] = {}
        for index, part in enumerate(self.parts):
            # Each part draws from its own seed stream so adding a part
            # never reshuffles the randomness of the others.
            part_ctx = ScenarioContext(
                initial_size=ctx.initial_size,
                horizon=ctx.horizon,
                seed=int(spawn_rng(ctx.seed, "compose", index, part.name).integers(0, 2**62)),
            )
            for event in part.events(part_ctx):
                slot = merged.setdefault(
                    event.time, {"join": 0, "leave": 0, "perf": []}
                )
                slot["join"] += event.join
                slot["leave"] += event.leave
                for entry in event.perf:
                    # namespace selection groups per part so two composed
                    # scenarios never share a resource selection by accident
                    if len(entry) == 3 and entry[2]:
                        entry = (entry[0], entry[1], f"part{index}:{entry[2]}")
                    slot["perf"].append(entry)
        return [
            ScenarioEvent(
                time=time,
                join=int(slot["join"]),
                leave=int(slot["leave"]),
                perf=tuple(slot["perf"]),
            )
            for time, slot in sorted(merged.items())
        ]

    def params(self) -> Dict[str, object]:
        return {
            "parts": [
                {"name": part.name, "params": part.params()} for part in self.parts
            ]
        }

    def describe(self) -> str:
        return " + ".join(part.describe() for part in self.parts)


def compose(*scenarios: Scenario) -> ComposedScenario:
    """Merge scenarios into one chronologically interleaved event stream."""
    return ComposedScenario(scenarios)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_events(
    events: Sequence[ScenarioEvent], *, initial_size: int
) -> None:
    """Check that a stream is physically realisable.

    Raises :class:`ScenarioError` unless event times are positive and
    non-decreasing and the pool size never drops below one (every departure
    removes a *present* resource, and the grid is never left empty).
    """
    if initial_size <= 0:
        raise ScenarioError("initial_size must be positive")
    present = initial_size
    last_time = 0.0
    for event in events:
        if event.time < last_time:
            raise ScenarioError(
                f"event times must be non-decreasing: {event.time} after {last_time}"
            )
        last_time = event.time
        present += event.join
        present -= event.leave
        if present < 1:
            raise ScenarioError(
                f"pool would drop to {present} resources at time {event.time}; "
                "the grid must keep at least one resource"
            )


# ----------------------------------------------------------------------
# performance profile
# ----------------------------------------------------------------------
class PerformanceProfile:
    """Piecewise-constant computation-time multipliers per resource.

    ``factor_at(rid, t)`` is 1.0 until the first change for ``rid`` at or
    before ``t``.  Factors multiply computation *time*: 2.0 halves a
    resource's speed, 1.0 restores it.
    """

    def __init__(self) -> None:
        #: rid -> parallel sorted lists of change times and factors
        self._times: Dict[str, List[float]] = {}
        self._factors: Dict[str, List[float]] = {}

    def set_factor(self, resource_id: str, time: float, factor: float) -> None:
        if factor <= 0:
            raise ScenarioError("perf factor must be positive")
        times = self._times.setdefault(resource_id, [])
        factors = self._factors.setdefault(resource_id, [])
        if times and time < times[-1]:
            raise ScenarioError("perf changes must be recorded chronologically")
        if times and time == times[-1]:
            factors[-1] = float(factor)
            return
        times.append(float(time))
        factors.append(float(factor))

    def factor_at(self, resource_id: str, time: float) -> float:
        times = self._times.get(resource_id)
        if not times:
            return 1.0
        index = bisect_right(times, time) - 1
        if index < 0:
            return 1.0
        return self._factors[resource_id][index]


    def state_at(self, time: float) -> Dict[str, float]:
        """Snapshot ``rid -> factor`` of every non-nominal resource at ``time``."""
        out: Dict[str, float] = {}
        for rid in self._times:
            factor = self.factor_at(rid, time)
            if factor != 1.0:
                out[rid] = factor
        return out

    def change_times(self) -> List[float]:
        """Sorted distinct times at which any factor changes."""
        times = {t for series in self._times.values() for t in series}
        return sorted(times)

    @property
    def is_trivial(self) -> bool:
        return not self._times

    def scaled_costs(self, base: CostModel, time: float) -> CostModel:
        """``base`` with this profile's factors as of ``time`` applied."""
        factors = self.state_at(time)
        if not factors:
            return base
        return ScaledCostModel(base, factors)


class ScaledCostModel(DelegatingCostModel):
    """A cost model with per-resource computation-time multipliers.

    The one per-resource scaling view: performance profiles use it, and the
    Predictor's :class:`~repro.core.predictor.RatioAdjustedCostModel` is a
    snapshot of learned corrections built on it.  Communication costs and
    the intrinsic (resource-free) averages pass through unchanged; only
    ``computation_cost`` is scaled.  The wrapper keeps the base model's
    fast-path capabilities (uniform communication, dense-view memoization)
    and prices whole columns from the base's matrix, so scaled replanning
    runs on the same kernel.
    """

    def __init__(self, base: CostModel, factors: Mapping[str, float]) -> None:
        for rid, factor in factors.items():
            if factor <= 0:
                raise ScenarioError(f"non-positive factor for {rid!r}")
        super().__init__(base)
        self._set_factors(factors)

    def _set_factors(self, factors: Mapping[str, float]) -> None:
        self.factors: Dict[str, float] = {
            rid: float(f) for rid, f in factors.items() if f != 1.0
        }
        self._signature = tuple(sorted(self.factors.items()))

    def cache_token(self) -> Optional[object]:
        token = self.base.cache_token()
        if token is None:
            return None
        return ("scaled", token, self._signature)

    def computation_cost(self, job_id: str, resource_id: str) -> float:
        cost = self.base.computation_cost(job_id, resource_id)
        factor = self.factors.get(resource_id)
        return cost if factor is None else cost * factor

    def _price_columns(self, resource_ids: Sequence[str]) -> "np.ndarray":
        # unscaled columns multiply by 1.0, which leaves every float as is
        row = np.array([self.factors.get(rid, 1.0) for rid in resource_ids])
        return self.base.computation_matrix(resource_ids) * row


# ----------------------------------------------------------------------
# materialisation
# ----------------------------------------------------------------------
@dataclass
class ScenarioRun:
    """A scenario made concrete: pool, performance profile, event stream."""

    scenario: Scenario
    context: ScenarioContext
    pool: ResourcePool
    profile: PerformanceProfile
    events: List[ScenarioEvent] = field(default_factory=list)

    def pool_events(self) -> List[PoolEvent]:
        """Membership-change events of the materialised pool."""
        return self.pool.events()

    def replan_times(self) -> List[float]:
        """Sorted distinct times the Planner should re-evaluate at."""
        times = {event.time for event in self.pool_events()}
        times.update(self.profile.change_times())
        return sorted(times)

    def describe(self) -> str:
        return (
            f"{self.scenario.describe()} on R={self.context.initial_size} "
            f"(seed={self.context.seed})"
        )


def materialize(
    scenario: Scenario,
    *,
    initial_size: int,
    seed: int = 0,
    horizon: float = 8000.0,
    name_prefix: str = "r",
) -> ScenarioRun:
    """Turn an abstract scenario into a concrete, validated :class:`ScenarioRun`.

    The initial pool is ``r1..rR`` at time 0.  Joins mint fresh identifiers
    in arrival order; departures pick uniformly (from the scenario seed)
    among the resources present at the event, preferring the longest-present
    ones only through the uniform draw — *any* resource, busy or idle, can
    depart.  Departure counts that would empty the grid are clamped so at
    least one resource always remains (and the clamp is visible in the
    returned, re-validated event stream).
    """
    ctx = ScenarioContext(initial_size=initial_size, horizon=horizon, seed=seed)
    raw = sorted(scenario.events(ctx), key=lambda event: event.time)
    rng = spawn_rng(seed, "materialize", scenario.name, initial_size)

    pool = ResourcePool()
    counter = 0
    present: List[str] = []
    for _ in range(initial_size):
        counter += 1
        rid = f"{name_prefix}{counter}"
        pool.add(Resource(rid, available_from=0.0))
        present.append(rid)

    profile = PerformanceProfile()
    leave_at: Dict[str, float] = {}
    perf_groups: Dict[str, List[str]] = {}
    realised: List[ScenarioEvent] = []
    for event in raw:
        if event.time > ctx.horizon:
            break
        join = event.join
        for index in range(join):
            counter += 1
            rid = f"{name_prefix}{counter}"
            pool.add(
                Resource(
                    rid,
                    available_from=event.time,
                    metadata={"scenario_event": event.time},
                )
            )
            present.append(rid)
        # Victims must have joined strictly before the event: a resource
        # cannot join and leave at the same instant (its availability
        # window would be empty).
        removable = [
            rid for rid in present if pool.resource(rid).available_from < event.time
        ]
        leave = min(event.leave, len(removable), len(present) - 1)
        for _ in range(leave):
            victim = removable.pop(int(rng.integers(0, len(removable))))
            present.remove(victim)
            leave_at[victim] = event.time
        perf: List[Tuple[int, float]] = []
        for entry in event.perf:
            count, factor = entry[0], entry[1]
            group = entry[2] if len(entry) == 3 else ""
            if group and group in perf_groups:
                targets = [rid for rid in perf_groups[group] if rid in present]
            elif count == -1:
                targets = list(present)
            else:
                hit = min(count, len(present))
                order = sorted(int(i) for i in rng.permutation(len(present))[:hit])
                targets = [present[position] for position in order]
            if group and group not in perf_groups:
                perf_groups[group] = list(targets)
            if not targets:
                continue
            for rid in targets:
                profile.set_factor(rid, event.time, factor)
            perf.append((len(targets), factor))
        realised.append(
            ScenarioEvent(time=event.time, join=join, leave=leave, perf=tuple(perf))
        )

    if leave_at:
        rebuilt = ResourcePool()
        for rid in pool.all_resource_ids():
            res = pool.resource(rid)
            until = leave_at.get(rid)
            if until is None:
                rebuilt.add(res)
            else:
                rebuilt.add(
                    Resource(
                        rid,
                        available_from=res.available_from,
                        available_until=until,
                        site=res.site,
                        metadata=dict(res.metadata),
                    )
                )
        pool = rebuilt

    realised = [event for event in realised if not event.is_noop]
    validate_events(realised, initial_size=initial_size)
    return ScenarioRun(
        scenario=scenario, context=ctx, pool=pool, profile=profile, events=realised
    )
