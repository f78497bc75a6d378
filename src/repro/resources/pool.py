"""The time-varying grid resource pool.

The pool records every resource that will ever exist together with the
logical time window in which it is part of the grid.  Schedulers query the
pool for a *snapshot* at the current clock (the set ``R`` of the paper),
while the simulation iterates over the pool's *events* — the points in time
at which membership changes, which are exactly the events the adaptive
Planner listens for (paper §3.3).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.resources.resource import Resource

__all__ = ["PoolEvent", "ResourcePool"]


@dataclass(frozen=True)
class PoolEvent:
    """A membership change of the resource pool.

    ``added`` and ``removed`` list the resource identifiers that join or
    leave the grid at ``time``.
    """

    time: float
    added: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()

    @property
    def is_addition(self) -> bool:
        return bool(self.added)

    @property
    def is_removal(self) -> bool:
        return bool(self.removed)


class ResourcePool:
    """Collection of :class:`Resource` objects with availability windows.

    Examples
    --------
    >>> pool = ResourcePool()
    >>> _ = pool.add(Resource("r1"))
    >>> _ = pool.add(Resource("r2", available_from=15.0))
    >>> pool.available_at(0.0)
    ['r1']
    >>> pool.available_at(20.0)
    ['r1', 'r2']
    """

    def __init__(self, resources: Optional[Iterable[Resource]] = None) -> None:
        self._resources: Dict[str, Resource] = {}
        #: membership index behind :meth:`available_at`: the sorted window
        #: boundaries and, per boundary, the members of the half-open
        #: interval it opens; ``None`` until the next query rebuilds it
        self._membership: Optional[Tuple[List[float], List[Tuple[str, ...]]]] = None
        for resource in resources or ():
            self.add(resource)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, resource: Resource) -> Resource:
        """Register a resource; duplicate identifiers raise ``ValueError``."""
        if resource.resource_id in self._resources:
            raise ValueError(f"duplicate resource id: {resource.resource_id!r}")
        self._resources[resource.resource_id] = resource
        self._membership = None
        return resource

    def add_many(self, resources: Iterable[Resource]) -> List[Resource]:
        return [self.add(resource) for resource in resources]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, resource_id: str) -> bool:
        return resource_id in self._resources

    def __len__(self) -> int:
        return len(self._resources)

    def __iter__(self) -> Iterator[str]:
        return iter(self._resources)

    def resource(self, resource_id: str) -> Resource:
        return self._resources[resource_id]

    def all_resource_ids(self) -> List[str]:
        """Identifiers of every resource ever known, in insertion order."""
        return list(self._resources.keys())

    def initial_resources(self) -> List[str]:
        """Resources available at time 0 (the static scheduler's world view)."""
        return self.available_at(0.0)

    def available_at(self, time: float) -> List[str]:
        """Identifiers of resources that are part of the grid at ``time``.

        A fresh list, in insertion order.  Membership only changes at a
        window boundary, so the answer is read from the membership index
        (:meth:`_membership_index`) by bisection; a NaN time, which no
        bisection can place, scans the windows.
        """
        if time != time:
            return [rid for rid, res in self._resources.items() if res.is_available_at(time)]
        bounds, members = self._membership_index()
        k = bisect_right(bounds, time)
        return list(members[k - 1]) if k else []

    def _membership_index(self) -> Tuple[List[float], List[Tuple[str, ...]]]:
        """Every window boundary, sorted, and the resources available on
        ``[bounds[k], bounds[k + 1])`` for each ``k``, in insertion order.

        Built on the first query after an :meth:`add`: a :class:`Resource`
        is frozen, so nothing else can move a window.
        """
        if self._membership is None:
            resources = self._resources.items()
            bounds = sorted(
                {res.available_from for _, res in resources}
                | {res.available_until for _, res in resources if res.available_until is not None}
            )
            members = [
                tuple(rid for rid, res in resources if res.is_available_at(bound))
                for bound in bounds
            ]
            self._membership = (bounds, members)
        return self._membership

    def not_departed_by(self, time: float) -> List[str]:
        """Identifiers of resources that have not left the grid by ``time``.

        Present at ``time`` or joining later, in insertion order: every
        resource a workflow released at ``time`` can ever plan on.
        """
        return [
            rid
            for rid, res in self._resources.items()
            if res.available_until is None or res.available_until > time
        ]

    def joined_in(self, start: float, end: float) -> List[str]:
        """Resources whose ``available_from`` lies in ``(start, end]``."""
        return [
            rid
            for rid, res in self._resources.items()
            if start < res.available_from <= end
        ]

    def events(self, *, after: float = 0.0, until: Optional[float] = None) -> List[PoolEvent]:
        """Membership-change events strictly after ``after`` (and up to ``until``).

        Events are aggregated per time point and sorted chronologically.
        """
        changes: Dict[float, Dict[str, List[str]]] = {}
        for rid, res in self._resources.items():
            if res.available_from > after and (until is None or res.available_from <= until):
                changes.setdefault(res.available_from, {"added": [], "removed": []})[
                    "added"
                ].append(rid)
            if res.available_until is not None and res.available_until > after and (
                until is None or res.available_until <= until
            ):
                changes.setdefault(res.available_until, {"added": [], "removed": []})[
                    "removed"
                ].append(rid)
        events = [
            PoolEvent(
                time=time,
                added=tuple(sorted(parts["added"])),
                removed=tuple(sorted(parts["removed"])),
            )
            for time, parts in changes.items()
        ]
        events.sort(key=lambda event: event.time)
        return events

    def snapshot(self, time: float) -> "ResourcePool":
        """A new pool containing only the resources available at ``time``.

        The copies keep their availability windows; the snapshot is mainly a
        convenience for what-if analyses.
        """
        pool = ResourcePool()
        for rid in self.available_at(time):
            pool.add(self._resources[rid])
        return pool

    def restricted_to(self, resource_ids: Sequence[str]) -> "ResourcePool":
        """A new pool containing only ``resource_ids`` (order preserved)."""
        pool = ResourcePool()
        for rid in resource_ids:
            pool.add(self._resources[rid])
        return pool

    def extended_with(self, resources: Iterable[Resource]) -> "ResourcePool":
        """A new pool with additional hypothetical resources (what-if support)."""
        pool = ResourcePool(self._resources.values())
        pool.add_many(resources)
        return pool

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResourcePool(n={len(self._resources)})"
