"""The single discrete-event core every execution path runs on.

This module is the one engine of the repository (it absorbed the earlier
``repro.simulation.engine``): a heap of *typed* events — job completions,
workflow arrivals, scenario joins/leaves/performance changes, deviation
triggers, replan decisions — drained by a logical clock.  The four
execution paths (static schedule replay, just-in-time mapping, the
adaptive rescheduling loop of paper Fig. 2 and the multi-tenant shared
grid) are thin policies over this core: each posts its triggers as typed
events and reacts in handlers; none owns a private replay loop.

Determinism contract
--------------------
Events are executed in ``(time, priority, sequence)`` order:

* strictly earlier ``time`` first;
* at the **same timestamp**, lower ``priority`` first (e.g. a job
  finishing exactly at a departure instant completes *before* the
  departure kills the resource's queue);
* at the same timestamp *and* priority, **insertion order** (``sequence``
  is a monotone counter) — so same-time workflow arrivals are admitted in
  submission order, and re-posted handlers never overtake older ones.

The clock never moves backwards: posting an event before the current
logical time raises :class:`SimulationError` (events injected out of
order are a programming error, not something to silently reorder).

Instrumentation
---------------
``EventCore.instrument()`` arms process-wide counters that split wall
time spent *inside the core's dispatch machinery* (heap pushes/pops,
bookkeeping) from time spent in the handlers themselves.  The
``event_core_overhead`` benchmark uses this to gate the engine's overhead
against the pure policy cost (≤10% on the 1000-job adaptive case).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "Event",
    "EventCore",
    "EventKind",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, exceeding limits)."""


class EventKind(enum.Enum):
    """The event vocabulary shared by every execution path."""

    #: a job (or duplicate copy) finishing on its resource
    COMPLETION = "completion"
    #: a workflow submitted to the grid (multi-tenant arrival streams)
    ARRIVAL = "arrival"
    #: resources joining / leaving / changing speed (scenario events)
    POOL_CHANGE = "pool_change"
    PERF_CHANGE = "perf_change"
    #: a data transfer landing on a consumer's resource
    TRANSFER = "transfer"
    #: an observed completion missing its booking beyond the threshold
    DEVIATION = "deviation"
    #: a (re)planning decision point of the adaptive loop
    REPLAN = "replan"
    #: untyped bootstrap/plumbing callbacks
    GENERIC = "generic"


@dataclass(order=True)
class Event:
    """Heap entry: ordered by ``(time, priority, sequence)``.

    The comparison fields define the determinism contract documented in
    the module docstring; ``kind``, ``callback`` and ``label`` never
    influence ordering.
    """

    time: float
    priority: int
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    kind: EventKind = field(compare=False, default=EventKind.GENERIC)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class EventCore:
    """Discrete-event engine with a logical clock and typed events.

    Examples
    --------
    >>> core = EventCore()
    >>> seen = []
    >>> _ = core.post(5.0, lambda: seen.append(core.now))
    >>> _ = core.post(2.0, lambda: seen.append(core.now))
    >>> core.run()
    >>> seen
    [2.0, 5.0]
    """

    #: process-wide instrumentation switch + counters (see :meth:`instrument`)
    _instrumented: bool = False
    stats: Dict[str, float] = {
        "events": 0,
        "dispatch_seconds": 0.0,
        "handler_seconds": 0.0,
    }

    def __init__(self, *, start_time: float = 0.0, max_events: int = 10_000_000) -> None:
        self._now = float(start_time)
        self._queue: List[Event] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._max_events = int(max_events)
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------------
    @classmethod
    def instrument(cls, enabled: bool = True) -> None:
        """Toggle dispatch-overhead instrumentation and reset the counters."""
        cls._instrumented = bool(enabled)
        cls.stats = {"events": 0, "dispatch_seconds": 0.0, "handler_seconds": 0.0}

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current logical time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    def post(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        kind: EventKind = EventKind.GENERIC,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Post a typed event at absolute ``time``.

        Raises
        ------
        SimulationError
            If ``time`` lies before the current logical time (out-of-order
            injection).
        """
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        event = Event(
            time=float(max(time, self._now)),
            priority=priority,
            sequence=next(self._sequence),
            callback=callback,
            kind=kind,
            label=label,
        )
        heapq.heappush(self._queue, event)
        return event

    def peek_next_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` if queue empty."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event; return ``False`` if none remained."""
        if EventCore._instrumented:
            return self._step_instrumented()
        while self._queue:
            if self._queue[0].cancelled:
                heapq.heappop(self._queue)
                continue
            # check the limit before popping: the event that trips it must
            # stay visible to post-mortem pending_events()/peek_next_time()
            if self._processed >= self._max_events:
                raise SimulationError(
                    f"exceeded the maximum of {self._max_events} events; "
                    "likely a runaway event loop"
                )
            event = heapq.heappop(self._queue)
            self._now = event.time
            self._processed += 1
            event.callback()
            return True
        return False

    def _step_instrumented(self) -> bool:
        """As :meth:`step`, splitting dispatch time from handler time."""
        t0 = _time.perf_counter()
        while self._queue:
            if self._queue[0].cancelled:
                heapq.heappop(self._queue)
                continue
            if self._processed >= self._max_events:
                raise SimulationError(
                    f"exceeded the maximum of {self._max_events} events; "
                    "likely a runaway event loop"
                )
            event = heapq.heappop(self._queue)
            self._now = event.time
            self._processed += 1
            t1 = _time.perf_counter()
            event.callback()
            t2 = _time.perf_counter()
            stats = EventCore.stats
            stats["events"] += 1
            stats["dispatch_seconds"] += t1 - t0
            stats["handler_seconds"] += t2 - t1
            return True
        stats = EventCore.stats
        stats["dispatch_seconds"] += _time.perf_counter() - t0
        return False

    def run(self, *, until: Optional[float] = None) -> float:
        """Run until the queue drains, ``stop()`` is called or ``until`` passes.

        Returns the final logical time.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        self._stopped = False
        try:
            while not self._stopped:
                next_time = self.peek_next_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    # clamp: the clock never moves backwards, even when the
                    # caller passes an ``until`` earlier than logical now
                    self._now = max(self._now, until)
                    break
                self.step()
        finally:
            self._running = False
        return self._now
