"""Execution traces: what actually happened when a workflow ran.

An :class:`ExecutionTrace` records, per job, the resource it executed on and
its actual start/finish times, plus every output-file transfer, plus a log
of notable events (rescheduling decisions, pool changes).  It is the object
the Performance Monitor hands back to the Planner and the object the
experiment harness extracts metrics from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.scheduling.base import Assignment, Schedule

__all__ = ["TransferRecord", "TraceEvent", "KillRecord", "ExecutionTrace", "render_gantt"]


@dataclass(frozen=True)
class TransferRecord:
    """One output-file transfer between resources."""

    producer: str
    consumer: str
    source_resource: str
    target_resource: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class TraceEvent:
    """A notable run-time event (pool change, rescheduling decision, ...)."""

    time: float
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class KillRecord:
    """A job killed mid-execution because its resource departed the grid.

    ``killed_at - start`` is the execution time thrown away — the *wasted
    work* metric of the adversarial-scenario experiments.  The job itself
    re-runs elsewhere and appears in ``assignments`` with its final,
    successful execution.
    """

    job_id: str
    resource_id: str
    start: float
    killed_at: float

    @property
    def wasted(self) -> float:
        return self.killed_at - self.start


@dataclass
class ExecutionTrace:
    """Actual execution record of one workflow run."""

    workflow_name: str = "workflow"
    strategy: str = "unknown"
    assignments: Dict[str, Assignment] = field(default_factory=dict)
    transfers: List[TransferRecord] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    kills: List[KillRecord] = field(default_factory=list)
    #: redundant executions performed by duplication-based strategies; a
    #: job's canonical record stays in ``assignments``
    duplicates: List[Assignment] = field(default_factory=list)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_job(self, job_id: str, resource_id: str, start: float, finish: float) -> None:
        self.assignments[job_id] = Assignment(job_id, resource_id, start, finish)

    def record_duplicate(
        self, job_id: str, resource_id: str, start: float, finish: float
    ) -> None:
        self.duplicates.append(Assignment(job_id, resource_id, start, finish))

    def record_transfer(self, record: TransferRecord) -> None:
        self.transfers.append(record)

    def record_event(self, time: float, kind: str, detail: str = "") -> None:
        self.events.append(TraceEvent(time=time, kind=kind, detail=detail))

    def record_kill(
        self, job_id: str, resource_id: str, start: float, killed_at: float
    ) -> None:
        self.kills.append(KillRecord(job_id, resource_id, start, killed_at))
        self.events.append(
            TraceEvent(
                time=killed_at,
                kind="job-killed",
                detail=f"{job_id} on departed {resource_id}",
            )
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Actual makespan — the latest actual finish time (paper Eq. 4)."""
        if not self.assignments:
            return 0.0
        return max(a.finish for a in self.assignments.values())

    def actual_start(self, job_id: str) -> float:
        return self.assignments[job_id].start

    def actual_finish(self, job_id: str) -> float:
        return self.assignments[job_id].finish

    def resource_of(self, job_id: str) -> str:
        return self.assignments[job_id].resource_id

    def resources_used(self) -> List[str]:
        return sorted({a.resource_id for a in self.assignments.values()})

    def jobs(self) -> List[str]:
        return list(self.assignments.keys())

    def events_of_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def rescheduling_count(self) -> int:
        """Number of adopted rescheduling decisions recorded in the trace."""
        return len(self.events_of_kind("reschedule-adopted"))

    def total_transfer_time(self) -> float:
        return sum((t.duration for t in self.transfers), 0.0)

    def wasted_work(self) -> float:
        """Total execution time thrown away by departure kills."""
        return sum((kill.wasted for kill in self.kills), 0.0)

    def resource_busy_time(self, resource_id: str) -> float:
        return sum(
            a.duration for a in self.assignments.values() if a.resource_id == resource_id
        )

    def utilisation(self, resource_id: str) -> float:
        """Busy fraction of a resource over the trace's makespan."""
        span = self.makespan()
        if span <= 0:
            return 0.0
        return self.resource_busy_time(resource_id) / span

    def to_schedule(self, *, name: Optional[str] = None) -> Schedule:
        """Convert the trace to a :class:`Schedule` of actual times."""
        schedule = Schedule(name=name or f"{self.strategy}-actual")
        schedule.extend(self.assignments.values())
        for duplicate in self.duplicates:
            schedule.add_duplicate(duplicate)
        return schedule

    def to_rows(self) -> List[Tuple[str, str, float, float]]:
        """``(resource, job, start, finish)`` rows sorted for display."""
        rows = [
            (a.resource_id, a.job_id, a.start, a.finish)
            for a in self.assignments.values()
        ]
        rows.sort(key=lambda row: (row[0], row[2], row[1]))
        return rows


def render_gantt(
    schedule_or_trace,
    *,
    width: int = 72,
    resources: Optional[List[str]] = None,
) -> str:
    """ASCII Gantt chart of a schedule or trace (one row per resource).

    Intended for examples and debugging output; rendering never affects
    simulation results.
    """
    if isinstance(schedule_or_trace, ExecutionTrace):
        rows = schedule_or_trace.to_rows()
        span = schedule_or_trace.makespan()
    else:
        rows = schedule_or_trace.gantt_rows()
        span = schedule_or_trace.makespan()
    if span <= 0 or not rows:
        return "(empty schedule)"
    by_resource: Dict[str, List[Tuple[str, float, float]]] = {}
    for resource, job, start, finish in rows:
        by_resource.setdefault(resource, []).append((job, start, finish))
    resource_ids = resources or sorted(by_resource)
    lines = []
    scale = width / span
    for rid in resource_ids:
        bar = [" "] * width
        for job, start, finish in by_resource.get(rid, []):
            left = min(width - 1, int(start * scale))
            right = min(width, max(left + 1, int(finish * scale)))
            token = (job[-1] if job else "#")
            for pos in range(left, right):
                bar[pos] = token
        lines.append(f"{rid:>8} |{''.join(bar)}|")
    lines.append(f"{'':>8}  0{'':{width - 10}}{span:>8.1f}")
    return "\n".join(lines)
