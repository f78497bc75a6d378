"""Property-based tests of the shared discrete-event core (ISSUE 7).

The determinism contract of :mod:`repro.simulation.event_core` is what the
bit-identity gates of every execution path rest on, so it gets its own
hypothesis suite:

* events fire in ``(time, priority, insertion-sequence)`` order, for any
  batch of postings, and replaying the same batch yields the same order,
* same-timestamp ties break by priority then insertion order — documented
  and deterministic, never hash- or heap-internal order,
* posting an event before the current logical time raises
  :class:`SimulationError` (out-of-order injection is an error, not a
  silent reorder),
* cancelled events are skipped, an empty queue peeks ``None`` and steps
  ``False``, ``stop()`` halts the loop, the clock never moves backwards,
* the instrumentation counters count exactly the handlers that ran.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.event_core import (
    Event,
    EventCore,
    EventKind,
    SimulationError,
)

SETTINGS = settings(max_examples=60, deadline=None)

#: (time, priority) postings; coarse float grid so same-timestamp ties are
#: common rather than vanishingly rare
POSTINGS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8).map(lambda t: t * 0.5),
        st.integers(min_value=-2, max_value=2),
    ),
    min_size=1,
    max_size=24,
)


def drain(postings):
    """Post everything up front, run, return the fired posting indices."""
    core = EventCore()
    fired = []
    for index, (time, priority) in enumerate(postings):
        core.post(time, lambda i=index: fired.append(i), priority=priority)
    core.run()
    return fired


@given(POSTINGS)
@SETTINGS
def test_events_fire_in_time_priority_sequence_order(postings):
    fired = drain(postings)
    assert len(fired) == len(postings)
    keys = [(postings[i][0], postings[i][1], i) for i in fired]
    assert keys == sorted(keys)


@given(POSTINGS)
@SETTINGS
def test_replay_is_deterministic(postings):
    assert drain(postings) == drain(postings)


@given(POSTINGS)
@SETTINGS
def test_clock_is_monotone_and_matches_event_times(postings):
    core = EventCore()
    clocks = []
    for time, priority in postings:
        core.post(time, lambda: clocks.append(core.now), priority=priority)
    end = core.run()
    assert clocks == sorted(clocks)
    assert end == max(time for time, _ in postings)
    assert core.processed_events == len(postings)


def test_same_timestamp_ties_break_by_priority_then_insertion():
    core = EventCore()
    fired = []
    core.post(1.0, lambda: fired.append("late-posted-low-pri"), priority=1)
    core.post(1.0, lambda: fired.append("first-in"), priority=0)
    core.post(1.0, lambda: fired.append("second-in"), priority=0)
    core.post(0.0, lambda: fired.append("earlier"), priority=5)
    core.run()
    assert fired == ["earlier", "first-in", "second-in", "late-posted-low-pri"]


def test_posting_before_current_time_raises():
    core = EventCore(start_time=10.0)
    with pytest.raises(SimulationError, match="before current time"):
        core.post(9.0, lambda: None)


def test_posting_into_the_past_from_a_handler_raises():
    core = EventCore()
    core.post(5.0, lambda: core.post(4.0, lambda: None))
    with pytest.raises(SimulationError, match="before current time"):
        core.run()


def test_posting_within_epsilon_of_now_is_clamped_not_rejected():
    core = EventCore(start_time=1.0)
    event = core.post(1.0 - 1e-13, lambda: None)
    assert event.time == 1.0


def test_cancelled_events_are_skipped():
    core = EventCore()
    assert core.peek_next_time() is None and core.step() is False
    fired = []
    keep = core.post(1.0, lambda: fired.append("keep"))
    drop = core.post(2.0, lambda: fired.append("drop"), kind=EventKind.DEVIATION)
    core.post(3.0, lambda: fired.append("tail"))
    drop.cancel()
    core.run()
    assert fired == ["keep", "tail"]
    assert not keep.cancelled and drop.cancelled
    assert core.peek_next_time() is None and core.step() is False


def test_stop_halts_after_current_event():
    core = EventCore()
    fired = []
    core.post(1.0, lambda: fired.append(1))
    core.post(2.0, lambda: (fired.append(2), core.stop()))
    core.post(3.0, lambda: fired.append(3))
    assert core.run() == 2.0
    assert fired == [1, 2]
    assert core.pending_events == 1


def test_run_until_advances_clock_without_firing_later_events():
    core = EventCore()
    fired = []
    core.post(1.0, lambda: fired.append(1))
    core.post(5.0, lambda: fired.append(5))
    assert core.run(until=3.0) == 3.0
    assert fired == [1]
    assert core.pending_events == 1 and core.peek_next_time() == 5.0


def test_typed_events_carry_kind_and_label():
    core = EventCore()
    event = core.post(1.0, lambda: None, kind=EventKind.ARRIVAL, label="arrival:w1")
    assert event.kind is EventKind.ARRIVAL
    assert event.label == "arrival:w1"
    assert core.post(2.0, lambda: None).kind is EventKind.GENERIC


def test_max_events_guard_trips_on_runaway_loops():
    core = EventCore(max_events=10)

    def reschedule():
        core.post(core.now + 1.0, reschedule)

    core.post(0.0, reschedule)
    with pytest.raises(SimulationError, match="maximum of 10 events"):
        core.run()


def test_instrumentation_counts_exactly_the_fired_handlers():
    EventCore.instrument(True)
    try:
        core = EventCore()
        dropped = core.post(1.0, lambda: None)
        dropped.cancel()
        for t in (1.0, 2.0, 3.0):
            core.post(t, lambda: None)
        core.run()
        stats = dict(EventCore.stats)
    finally:
        EventCore.instrument(False)
    assert stats["events"] == 3
    assert stats["dispatch_seconds"] >= 0.0
    assert stats["handler_seconds"] >= 0.0
    # instrument() resets the counters on every toggle
    assert EventCore.stats["events"] == 0


def test_event_ordering_dataclass():
    early = Event(time=1.0, priority=0, sequence=0, callback=lambda: None)
    late = Event(time=1.0, priority=0, sequence=1, callback=lambda: None)
    assert early < late


def test_run_until_in_the_past_never_rewinds_the_clock():
    """Regression: ``run(until=t)`` with ``t < now`` used to rewind the clock.

    The loop assigned ``self._now = until`` whenever the next event lay
    beyond ``until`` — even when ``until`` was *earlier* than the current
    logical time, violating the documented "clock never moves backwards"
    contract (and making a subsequent ``post(now)`` of the old now raise).
    """
    core = EventCore()
    core.post(5.0, lambda: None)
    core.post(10.0, lambda: None)
    assert core.run(until=7.0) == 7.0
    # a second run bounded by an earlier horizon must clamp, not rewind
    assert core.run(until=3.0) == 7.0
    assert core.now == 7.0
    # the clock still advances normally afterwards
    assert core.run(until=10.0) == 10.0


def test_max_events_guard_leaves_tripping_event_on_the_queue():
    """Regression: the runaway event used to be popped before the raise.

    Post-mortem inspection via ``pending_events``/``peek_next_time`` was
    silently missing the very event that tripped the limit.
    """
    core = EventCore(max_events=2)
    for t in (1.0, 2.0, 3.0):
        core.post(t, lambda: None)
    with pytest.raises(SimulationError, match="maximum of 2 events"):
        core.run()
    assert core.pending_events == 1
    assert core.peek_next_time() == 3.0


#: interleaved operations against a live core: post a future event, run up
#: to an arbitrary horizon (possibly in the past), or request a stop
CLOCK_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("post"),
            st.integers(min_value=0, max_value=8).map(lambda t: t * 0.5),
            st.integers(min_value=-2, max_value=2),
        ),
        st.tuples(
            st.just("run_until"),
            st.integers(min_value=0, max_value=16).map(lambda t: t * 0.5),
        ),
        st.just(("stop",)),
    ),
    min_size=1,
    max_size=32,
)


@given(CLOCK_OPS)
@SETTINGS
def test_clock_is_monotone_under_random_interleavings(ops):
    """The logical clock never decreases, whatever the caller throws at it.

    Random interleavings of ``post`` (relative future times),
    ``run(until=...)`` with horizons before *and* after the current clock,
    and ``stop()`` — observed from inside handlers and from the run loop's
    return values alike.
    """
    core = EventCore()
    observed = [core.now]

    def note():
        observed.append(core.now)

    for op in ops:
        if op[0] == "post":
            core.post(core.now + op[1], note, priority=op[2])
        elif op[0] == "run_until":
            observed.append(core.run(until=op[1]))
            observed.append(core.now)
        else:
            core.stop()
    observed.append(core.run())
    observed.append(core.now)
    assert all(later >= earlier for earlier, later in zip(observed, observed[1:]))
