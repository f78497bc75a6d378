"""Resource model: heterogeneous, dynamically changing grid resource pools.

The paper's grid model is a set of computation units ``R`` whose membership
changes over time (resources join/leave) and whose per-job speeds differ
(heterogeneity factor β).  This package provides:

* :class:`~repro.resources.resource.Resource` — a single computation unit,
* :class:`~repro.resources.pool.ResourcePool` — the time-varying pool,
* :class:`~repro.resources.dynamics.ResourceChangeModel` — the paper's
  (R, Δ, δ) change model generating join events.

Advance reservations (paper §3.2) are not a separate object: every
booking is replayed as a reservation by
:func:`repro.core.adaptive.project_actuals`.
"""

from repro.resources.resource import Resource
from repro.resources.pool import ResourcePool, PoolEvent
from repro.resources.dynamics import ResourceChangeModel, StaticResourceModel

__all__ = [
    "Resource",
    "ResourcePool",
    "PoolEvent",
    "ResourceChangeModel",
    "StaticResourceModel",
]
