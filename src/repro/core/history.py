"""Performance History Repository (paper Fig. 1).

The Planner stores every observed job execution — operation, resource,
duration — and uses the history to improve subsequent estimates ("the
Scheduler updates the Performance History Repository with the latest job
performance information to improve the estimation accuracy subsequently",
§3.2).  The repository aggregates per (operation, resource) and per
operation, with exponential decay available so recent observations dominate
in a drifting grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["PerformanceRecord", "PerformanceHistoryRepository"]

#: a record whose stored ``estimated`` is at most this carries no usable
#: prior estimate (a legacy or hand-made record)
MIN_STORED_ESTIMATE = 1e-12


@dataclass(frozen=True)
class PerformanceRecord:
    """One observed job execution.

    ``estimated`` optionally carries the Planner's prior estimate for this
    execution at observation time; ratio-mode re-estimation
    (:class:`~repro.core.predictor.RatioAdjustedCostModel`, a
    :class:`~repro.scenarios.base.ScaledCostModel` snapshot of the ratios
    learned from the records at construction) prefers it because it makes
    the observed/estimated ratio self-contained — job
    identifiers are not unique across workflows, so dividing by the
    *current* workflow's estimate would mis-price foreign observations.
    """

    operation: str
    resource_id: str
    duration: float
    job_id: str = ""
    finished_at: float = 0.0
    estimated: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.estimated < 0:
            raise ValueError("estimated must be non-negative")


class PerformanceHistoryRepository:
    """Store of observed execution durations with simple aggregation.

    Parameters
    ----------
    decay:
        Exponential decay factor in ``(0, 1]`` applied per *observation*
        when averaging: 1.0 (default) is the plain arithmetic mean, lower
        values weight recent observations more heavily.
    """

    def __init__(self, *, decay: float = 1.0) -> None:
        if not 0 < decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        self.decay = float(decay)
        self._records: List[PerformanceRecord] = []
        self._by_key: Dict[Tuple[str, str], List[float]] = {}
        self._by_operation: Dict[str, List[float]] = {}
        #: per resource, ``duration / estimated`` of every self-contained
        #: record, in record order
        self._ratios: Dict[str, List[float]] = {}
        #: records without a stored estimate
        self._legacy = 0

    # ------------------------------------------------------------------
    def record(self, record: PerformanceRecord) -> None:
        """Add one observation."""
        self._records.append(record)
        self._by_key.setdefault((record.operation, record.resource_id), []).append(
            record.duration
        )
        self._by_operation.setdefault(record.operation, []).append(record.duration)
        if record.estimated > MIN_STORED_ESTIMATE:
            self._ratios.setdefault(record.resource_id, []).append(
                record.duration / record.estimated
            )
        else:
            self._legacy += 1

    def record_execution(
        self,
        operation: str,
        resource_id: str,
        duration: float,
        *,
        job_id: str = "",
        finished_at: float = 0.0,
        estimated: float = 0.0,
    ) -> None:
        """Convenience wrapper building the :class:`PerformanceRecord`."""
        self.record(
            PerformanceRecord(
                operation=operation,
                resource_id=resource_id,
                duration=duration,
                job_id=job_id,
                finished_at=finished_at,
                estimated=estimated,
            )
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[PerformanceRecord]:
        return list(self._records)

    def self_contained_ratios(self) -> Optional[Dict[str, List[float]]]:
        """Observed/estimated ratios per resource, when every record stores its estimate.

        Resources appear in the order of their first record, each list in
        record order.  ``None`` when a legacy record (one without a stored
        estimate) is present: its ratio depends on the workflow it is read
        against.  The lists are the repository's own; do not mutate them.
        """
        return None if self._legacy else self._ratios

    def _weighted_mean(self, values: List[float]) -> float:
        if self.decay == 1.0:
            return float(np.mean(values))
        weights = np.array([self.decay ** (len(values) - 1 - i) for i in range(len(values))])
        return float(np.average(np.asarray(values), weights=weights))

    def observed_duration(
        self, operation: str, resource_id: Optional[str] = None
    ) -> Optional[float]:
        """Average observed duration of an operation (optionally per resource).

        Returns ``None`` when no observation exists, signalling the Predictor
        to fall back to its prior estimate.
        """
        if resource_id is not None:
            values = self._by_key.get((operation, resource_id))
            if values:
                return self._weighted_mean(values)
            return None
        values = self._by_operation.get(operation)
        if values:
            return self._weighted_mean(values)
        return None

    def observation_count(self, operation: str, resource_id: Optional[str] = None) -> int:
        if resource_id is not None:
            return len(self._by_key.get((operation, resource_id), []))
        return len(self._by_operation.get(operation, []))

    def operations(self) -> List[str]:
        return sorted(self._by_operation)

    def clear(self) -> None:
        self._records.clear()
        self._by_key.clear()
        self._by_operation.clear()
        self._ratios.clear()
        self._legacy = 0
