"""Small statistics helpers shared by the runner, the spread tool and the
tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: candidate tail levels, highest first
TAIL_LEVELS = (0.9, 0.75)

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``level`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(level * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, level: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(level * count))


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(level, value)`` of the highest level in :data:`TAIL_LEVELS` that
    has at least :data:`MIN_BEYOND` samples beyond it; the median when
    there are too few samples for any of them."""
    for level in TAIL_LEVELS:
        if beyond(len(samples), level) >= MIN_BEYOND:
            return level, percentile(samples, level)
    return 0.5, percentile(samples, 0.5)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
