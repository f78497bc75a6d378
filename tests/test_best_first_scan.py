"""The best-first min-EFT scan against the ordered acceptance chain.

:func:`repro.scheduling.frame._best_first_scan` visits a job's resources
cheapest-first and replays the scalar acceptance chain over the near set
only; :func:`repro.scheduling.frame._ordered_scan` is the ordered chain it
falls back to.  These tests pin that both pick the same resource, start
and finish on every placement:

* property tests on random busy timelines with integer costs (exact
  ties) jittered by half-epsilon steps (near-ties on the margin), with
  override resources, and at clock offsets from 1e7 to 1e9, where
  ``2·TIME_EPS`` falls below an ulp and the fallback runs;
* whole runs of every strategy that places through the frame, on a
  dedicated grid and on a shared grid under admission control, with every
  scan checked against the ordered chain and the fallback exercised.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import registry
from repro.core.admission import AdmissionConfig
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.resources.dynamics import ResourceChangeModel
from repro.scheduling import frame as frame_module
from repro.scheduling.base import TIME_EPS, ResourceTimeline
from repro.scheduling.frame import _best_first_scan, _EftScanBuffers, _ordered_scan
from repro.workflow.costs import ascending_order
from repro.workload.streams import WorkloadStream, default_tenants

#: clock offsets of the property tests: at 1e8 and 1e9 an ulp of the clock
#: exceeds ``2·TIME_EPS``, so every scan there must fall back
_OFFSETS = (0.0, 1e7, 1e8, 1e9)


def _scalar_chain(timelines, ready_list, w_row):
    """The frame's scalar reference: one ``earliest_start`` per resource."""
    best = None
    for j, timeline in enumerate(timelines):
        start = timeline.earliest_start(ready_list[j], w_row[j], insertion=True)
        finish = start + w_row[j]
        if best is None or finish < best[2] - TIME_EPS:
            best = (j, start, finish)
    return best


_resource = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 5)), max_size=6
)


@settings(max_examples=300, deadline=None)
@given(
    offset=st.sampled_from(_OFFSETS),
    busy=st.lists(_resource, min_size=1, max_size=7),
    placements=st.lists(
        st.tuples(
            st.integers(0, 25),
            st.lists(st.integers(1, 6), min_size=7, max_size=7),
            st.lists(st.integers(0, 4), min_size=7, max_size=7),
            st.dictionaries(st.integers(0, 6), st.integers(0, 25), max_size=3),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_best_first_equals_the_ordered_chain_on_every_placement(offset, busy, placements):
    # integer costs tie exactly; the half-epsilon jitter spreads finishes
    # across the 2·TIME_EPS margin, onto the near/boundary split
    timelines = []
    for r, spans in enumerate(busy):
        timeline = ResourceTimeline(f"r{r}", available_from=offset)
        for k, (at, length) in enumerate(spans):
            try:
                timeline.occupy(offset + at, offset + at + length, f"busy{k}")
            except ValueError:
                pass  # overlapping span: drop it
        timelines.append(timeline)
    n = len(timelines)
    buf = _EftScanBuffers(timelines)
    for step, (ready_units, costs, jitter, overrides) in enumerate(placements):
        w_row = [c + k * TIME_EPS / 2 for c, k in zip(costs[:n], jitter)]
        d1 = offset + ready_units
        over = {j % n: offset + units for j, units in overrides.items()}
        order_row = ascending_order([w_row])[0]
        fallbacks = buf.fallbacks
        got = _best_first_scan(buf, d1, over, w_row, order_row)
        want = _ordered_scan(buf, d1, over, w_row)
        ready_list = [over.get(j, d1) for j in range(n)]
        assert got == want == _scalar_chain(timelines, ready_list, w_row)
        if offset >= 1e8:
            assert buf.fallbacks == fallbacks + 1, "a sub-ulp margin must fall back"
        j, start, finish = got
        timelines[j].occupy(start, finish, f"job{step}")
        buf.refresh(j)


@settings(max_examples=100, deadline=None)
@given(
    costs=st.lists(st.integers(1, 4), min_size=2, max_size=9),
    ready_units=st.integers(0, 5),
)
def test_exact_ties_keep_the_first_resource_in_pool_order(costs, ready_units):
    # empty timelines: every finish is ready + w exactly, so equal costs
    # tie exactly and the chain keeps the first of them in pool order
    timelines = [ResourceTimeline(f"r{j}") for j in range(len(costs))]
    buf = _EftScanBuffers(timelines)
    w_row = [float(c) for c in costs]
    got = _best_first_scan(buf, float(ready_units), {}, w_row, ascending_order([w_row])[0])
    cheapest = min(w_row)
    assert got == (w_row.index(cheapest), float(ready_units), ready_units + cheapest)
    assert buf.fallbacks == 0


def test_the_walk_stops_at_the_first_resource_past_the_bound():
    timelines = [ResourceTimeline(f"r{j}") for j in range(5)]
    buf = _EftScanBuffers(timelines)
    w_row = [9.0, 3.0, 7.0, 3.0 + TIME_EPS / 2, 5.0]
    got = _best_first_scan(buf, 0.0, {}, w_row, ascending_order([w_row])[0])
    assert got == (1, 0.0, 3.0)
    # r1 and r3 (inside the 2·TIME_EPS margin) are evaluated, nothing else
    assert buf.evaluated == 2
    assert buf.fallbacks == 0


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------
#: the strategies that place through the frame; lookahead HEFT and HEFT
#: with duplication choose by their own per-resource loops and book
#: through :meth:`PartialScheduleFrame.place`, so their runs only have to
#: stay equal
_STRATEGIES = ("heft", "aheft", "cpop", "lookahead_heft", "heft_dup")
_SCANNING = {"heft", "aheft", "cpop"}


class _CheckedScan:
    """A :func:`_best_first_scan` that checks every call against the
    ordered chain and counts the calls and fallbacks."""

    def __init__(self) -> None:
        self.calls = 0
        self.fallbacks = 0

    def __call__(self, buf, d1, over, w_row, order_row):
        before = buf.fallbacks
        got = _best_first_scan(buf, d1, over, w_row, order_row)
        want = _ordered_scan(buf, d1, over, w_row)
        assert got == want, f"best-first {got} != ordered chain {want}"
        self.calls += 1
        self.fallbacks += buf.fallbacks - before
        return got


def _dedicated_run(strategy, omega_dag):
    case = generate_random_case(
        RandomDAGParameters(v=60, out_degree=0.15, ccr=1.0, beta=0.5, omega_dag=omega_dag),
        seed=3,
    )
    pool = ResourceChangeModel(
        5, interval=omega_dag / 2, fraction=0.4, max_events=3
    ).build_pool()
    # the strategy's own mode: static for plan-once HEFT, adaptive otherwise
    result = repro.run(case.workflow, pool, costs=case.costs, strategy=strategy)
    return result.makespan, sorted(result.schedule.to_dict().items())


def _admission_run(strategy):
    tenants = default_tenants(2, arrival_rate=0.004, max_arrivals=5, v=12, parallelism=6)
    arrivals = WorkloadStream(tenants, seed=5, horizon=3000.0).arrivals()
    scenario = repro.materialize(
        registry.make("scenario", "flash_crowd"), initial_size=6, seed=5, horizon=3000.0
    )
    result = repro.run(
        arrivals,
        scenario.pool,
        mode="multi",
        perf_profile=scenario.profile,
        policy="credit_drf",
        admission=AdmissionConfig(),
        scheduler_factory=lambda: registry.make("scheduler", strategy),
    )
    return [
        (o.key, o.completed_at, sorted(o.schedule.to_dict().items()))
        for o in result.raw.outcomes
    ]


def _runs(strategy):
    """Two dedicated runs, with clocks near 1e3 and near 1e9 (whose
    margins are sub-ulp), and a shared-grid run under admission control
    for the strategies that replan (the shared grid plans each arrival
    through ``reschedule``; plan-once HEFT has none)."""
    runs = [_dedicated_run(strategy, 300.0), _dedicated_run(strategy, 3e8)]
    if strategy != "heft":
        runs.append(_admission_run(strategy))
    return runs


@pytest.mark.parametrize("strategy", _STRATEGIES)
def test_whole_runs_match_the_ordered_chain(strategy, monkeypatch):
    checked = _CheckedScan()
    monkeypatch.setattr(frame_module, "_best_first_scan", checked)
    runs = _runs(strategy)
    monkeypatch.setattr(frame_module, "_best_first_scan", _ordered_scan)
    assert runs == _runs(strategy)
    if strategy in _SCANNING:
        assert checked.calls > 0
        assert 0 < checked.fallbacks < checked.calls
    else:
        assert checked.calls == 0
