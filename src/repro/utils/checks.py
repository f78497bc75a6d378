"""Input checks shared by the models' constructors."""

from __future__ import annotations

import math

__all__ = ["require_finite"]


def require_finite(name: str, value: float) -> None:
    """Reject a NaN or infinite ``value`` with a named ``ValueError``.

    Ordered range checks pass NaN silently (every comparison is false), so
    models run this before their own bounds checks.
    """
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
