"""Evaluation metrics.

The paper reports average makespans and the *improvement rate* of AHEFT over
HEFT.  This module also provides the standard DAG-scheduling metrics (SLR,
speedup, utilisation) used in the broader literature and by the extension
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.scheduling.base import Schedule
from repro.workflow.analysis import critical_path_length
from repro.workflow.costs import CostModel
from repro.workflow.dag import Workflow

__all__ = [
    "average",
    "percentile",
    "exceedance_rate",
    "improvement_rate",
    "jain_fairness_index",
    "makespan_statistics",
    "schedule_length_ratio",
    "speedup",
    "resource_utilisation",
    "MakespanStatistics",
]


def average(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return float(np.mean(values))


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation; 0.0 when empty).

    ``q = 0`` and ``q = 100`` return the minimum and maximum exactly.  An
    out-of-range ``q`` raises :class:`ValueError` regardless of the input —
    validating after the empty-input shortcut used to let ``percentile([],
    250)`` silently return 0.0, masking caller bugs on empty slices.

    Used for the tail metrics of the multi-tenant experiments (e.g. the
    95th-percentile flow time).
    """
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be in [0, 100]")
    values = list(values)
    if not values:
        return 0.0
    if q == 0:
        return float(min(values))
    if q == 100:
        return float(max(values))
    return float(np.percentile(np.asarray(values, dtype=float), q))


def exceedance_rate(values: Iterable[float], limit: float) -> float:
    """Fraction of ``values`` strictly above ``limit`` (0.0 when empty).

    The overload experiments report this over achieved stretches — the
    share of workflows whose service blew the configured stretch limit.
    """
    values = list(values)
    if not values:
        return 0.0
    return sum(1 for v in values if v > limit) / len(values)


def jain_fairness_index(values: Iterable[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n · Σx²)``.

    1.0 when every tenant receives identical service, approaching ``1/n``
    when one tenant monopolises the grid.  Defined as 1.0 for empty input
    or all-zero allocations (nothing was distributed unfairly).
    """
    values = [float(v) for v in values]
    if not values:
        return 1.0
    if any(v < 0 for v in values):
        raise ValueError("fairness index is defined for non-negative values")
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def improvement_rate(baseline: float, improved: float) -> float:
    """Relative makespan reduction of ``improved`` over ``baseline``.

    Matches the paper's "improvement rate": ``(HEFT − AHEFT) / HEFT``.
    Returns 0 when the baseline is zero.
    """
    if baseline == 0:
        return 0.0
    return (baseline - improved) / baseline


@dataclass(frozen=True)
class MakespanStatistics:
    """Summary statistics over a set of makespans.

    ``ci95_low``/``ci95_high`` bound the normal-approximation 95% confidence
    interval of the mean (``mean ± 1.96 · s/√n`` with the sample standard
    deviation ``s``); with fewer than two samples the interval collapses to
    the mean.  ``std`` stays the population standard deviation for backward
    compatibility with the existing ledgers.
    """

    count: int
    mean: float
    std: float
    min: float
    max: float
    ci95_low: float = 0.0
    ci95_high: float = 0.0

    @property
    def ci95_half(self) -> float:
        """Half-width of the 95% confidence interval of the mean."""
        return (self.ci95_high - self.ci95_low) / 2.0

    def __str__(self) -> str:  # pragma: no cover - formatting
        return (
            f"n={self.count}, mean={self.mean:.1f}, std={self.std:.1f}, "
            f"min={self.min:.1f}, max={self.max:.1f}, "
            f"ci95=[{self.ci95_low:.1f}, {self.ci95_high:.1f}]"
        )


#: normal-approximation z for a two-sided 95% confidence interval
_Z_95 = 1.959963984540054


def makespan_statistics(makespans: Sequence[float]) -> MakespanStatistics:
    """Summarise a collection of makespans (or any replicated metric)."""
    if not makespans:
        return MakespanStatistics(count=0, mean=0.0, std=0.0, min=0.0, max=0.0)
    array = np.asarray(list(makespans), dtype=float)
    mean = float(array.mean())
    if array.size > 1:
        half = _Z_95 * float(array.std(ddof=1)) / float(np.sqrt(array.size))
    else:
        half = 0.0
    return MakespanStatistics(
        count=int(array.size),
        mean=mean,
        std=float(array.std()),
        min=float(array.min()),
        max=float(array.max()),
        ci95_low=mean - half,
        ci95_high=mean + half,
    )


def schedule_length_ratio(
    workflow: Workflow,
    costs: CostModel,
    makespan: float,
    resources: Sequence[str],
) -> float:
    """SLR: makespan normalised by the minimum-cost critical path length.

    An SLR of 1 would mean the schedule is as short as the critical path
    executed on the fastest resources with free communication — the usual
    lower-bound normalisation in the HEFT literature.

    An empty ``resources`` pool has no defined lower bound; 0.0 is returned,
    matching the other metrics' empty-input convention (``critical_path_length``
    would otherwise silently fall back to *average* costs, mispricing the
    bound instead of flagging the degenerate input).
    """
    if not resources:
        return 0.0
    lower_bound = critical_path_length(
        workflow,
        costs,
        resources,
        include_communication=False,
        minimum_costs=True,
    )
    if lower_bound <= 0:
        return 0.0
    return makespan / lower_bound


def speedup(
    workflow: Workflow,
    costs: CostModel,
    makespan: float,
    resources: Sequence[str],
) -> float:
    """Sequential-execution time on the single best resource over the makespan.

    Returns 0.0 for an empty ``resources`` pool (no sequential baseline
    exists), matching the other metrics' empty-input convention instead of
    letting ``min()`` raise a bare ``ValueError`` from an empty generator.
    """
    if makespan <= 0 or not resources:
        return 0.0
    best_sequential = min(
        sum(costs.computation_cost(job, rid) for job in workflow.jobs)
        for rid in resources
    )
    return best_sequential / makespan


def resource_utilisation(schedule: Schedule, resources: Sequence[str]) -> Dict[str, float]:
    """Busy fraction of every resource over the schedule's makespan.

    Counts *all* work booked on a resource — primary assignments and
    duplicate copies placed by duplication strategies alike.  Summing
    ``assignments_on`` only would make ``heft_dup``'s extra copies invisible
    and understate busy fractions (the same bug class as the multi-tenant
    ``consumed_time`` fix).
    """
    span = schedule.makespan()
    out: Dict[str, float] = {rid: 0.0 for rid in resources}
    if span <= 0:
        return out
    for assignment in schedule.all_assignments():
        if assignment.resource_id in out:
            out[assignment.resource_id] += assignment.duration
    return {rid: busy / span for rid, busy in out.items()}
