"""A single grid computation resource."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.utils.checks import require_finite

__all__ = ["Resource"]


@dataclass(frozen=True)
class Resource:
    """A computation unit in the grid.

    Parameters
    ----------
    resource_id:
        Unique identifier inside its pool (e.g. ``"r1"``).
    available_from:
        Logical time at which the resource joins the grid.  Resources present
        from the start have ``available_from == 0``; resources discovered
        during execution (the events AHEFT reacts to) have a positive value.
    available_until:
        Logical time at which the resource leaves the grid, or ``None`` if it
        never leaves.  The paper's evaluation only exercises additions
        (§4.1 assumption 3), but departures are modelled so the event plumbing
        and what-if analysis can reason about removals.
    site:
        Optional grouping label (cluster / administrative domain).
    metadata:
        Free-form attributes (e.g. the generator's speed class).
    """

    resource_id: str
    available_from: float = 0.0
    available_until: float | None = None
    site: str = "default"
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_finite("available_from", self.available_from)
        if self.available_until is not None and math.isnan(self.available_until):
            raise ValueError("available_until must not be NaN (None means never leaves)")
        if self.available_from < 0:
            raise ValueError("available_from must be non-negative")
        if self.available_until is not None and self.available_until <= self.available_from:
            raise ValueError("available_until must be after available_from")

    def is_available_at(self, time: float) -> bool:
        """``True`` if the resource is part of the grid at ``time``."""
        if time < self.available_from:
            return False
        if self.available_until is not None and time >= self.available_until:
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.resource_id
