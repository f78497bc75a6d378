"""The shared grid's booking directory against the walk-sort-merge oracle.

:mod:`repro.scheduling.bookings` keeps every admitted workflow's bookings
in per-resource lanes and hands planning frames and admission control
slices of them.  The code it replaced — walk every admitted schedule
(``busy_view``), sort/merge/``occupy`` the spans into fresh timelines, and
re-sort/re-merge them for saturation — is frozen in
``benchmarks/_seed_reference.py``.  These tests drive both on the same
planner state and require identical results:

* a hypothesis state walk over register, adopt/repair re-bookings (which
  may overlap other tenants), completion and monotone-clock pruning, with
  zero-length spans, spans touching within ``TIME_EPS``, duplicates that
  finish after their workflow's makespan, and resources that join after
  the clock;
* the two merge rules, pinned by hand;
* whole ``repro.run(mode="multi")`` runs with the oracle patched in.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from benchmarks._seed_reference import (
    seed_busy_view,
    seed_foreign_timelines,
    seed_predicted_saturation,
)
from repro.core import admission as admission_module
from repro.core.admission import AdmissionConfig, predicted_saturation
from repro.core.multi_tenant import ActiveWorkflow, MultiTenantPlanner
from repro.experiments.multi_tenant import MultiTenantConfig
from repro.resources.pool import Resource, ResourcePool
from repro.scheduling import bookings
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import Assignment, Schedule, TIME_EPS
from repro.scheduling.bookings import BookingDirectory, foreign_timelines

RESOURCES = ("r0", "r1", "r2", "r3")

# times on a coarse grid, nudged by sub- and super-epsilon offsets so spans
# touch, overlap or miss each other by about TIME_EPS
_NUDGES = (0.0, 0.0, 0.0, TIME_EPS / 2, -TIME_EPS / 2, TIME_EPS, -TIME_EPS, 2 * TIME_EPS)
_times = st.builds(
    lambda step, nudge: max(0.0, step * 0.5 + nudge),
    st.integers(0, 40),
    st.sampled_from(_NUDGES),
)
_lengths = st.one_of(
    st.sampled_from((0.0, TIME_EPS / 2, TIME_EPS, 2 * TIME_EPS)),
    st.builds(
        lambda steps, nudge: steps * 0.5 + nudge,
        st.integers(1, 12),
        st.sampled_from(_NUDGES),
    ),
)
_spans = st.tuples(st.sampled_from(RESOURCES), _times, _lengths)

_schedules = st.tuples(
    st.lists(_spans, min_size=1, max_size=6),
    # duplicate copies, free to finish after the primaries' makespan
    st.lists(st.tuples(st.sampled_from(RESOURCES), _times, _lengths), max_size=2),
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), _schedules),
        st.tuples(st.just("rebook"), st.integers(0, 20), _schedules),
        st.tuples(st.just("advance"), st.sampled_from((0.0, TIME_EPS / 2, 0.5, 1.0, 3.0))),
        st.tuples(st.just("complete")),
        st.tuples(
            st.just("query"),
            st.one_of(st.none(), st.integers(0, 20)),
            # join offsets after the clock (0 = available now)
            st.lists(
                st.sampled_from((0.0, 0.0, TIME_EPS / 2, 0.5, 2.0, 6.0)),
                min_size=len(RESOURCES) + 1,
                max_size=len(RESOURCES) + 1,
            ),
            # the frame's own pinned work
            st.lists(_spans, max_size=2),
            # earliest_start probes: (ready offset, duration)
            st.lists(st.tuples(_times, _lengths), min_size=1, max_size=4),
            # saturation windows
            st.lists(st.sampled_from((0.0, TIME_EPS, 0.5, 1.0, 4.0, 10.0, 25.0)), max_size=3),
        ),
    ),
    min_size=1,
    max_size=30,
)


def _schedule(key, spec) -> Schedule:
    primaries, duplicates = spec
    schedule = Schedule(name=key)
    for index, (rid, start, length) in enumerate(primaries):
        schedule.add(Assignment(f"{key}-j{index}", rid, start, start + length))
    for index, (rid, start, length) in enumerate(duplicates):
        schedule.add_duplicate(Assignment(f"{key}-j{index}", rid, start, start + length))
    return schedule


def _workflow(key, seq, schedule) -> ActiveWorkflow:
    return ActiveWorkflow(
        key=key,
        tenant=f"t{seq % 3}",
        seq=seq,
        arrival_time=0.0,
        kind="random",
        workflow=None,
        costs=None,
        scheduler=AHEFTScheduler(),
        schedule=schedule,
        dedicated_span=1.0,
    )


def _state(timeline):
    return (
        timeline.available_from,
        [(start, finish) for start, finish, _ in timeline.intervals()],
        timeline._starts,
        timeline._prefix_finish,
        timeline._gaps,
        timeline._max_finish,
        timeline._max_gap_bound,
        timeline._gap_end_bound,
    )


def _check_query(planner, clock, exclude, joins, pinned_spec, probes, windows):
    view = planner.busy_view(exclude, clock)
    oracle = seed_busy_view(planner, exclude, clock)
    assert dict(view) == oracle
    assert list(view) == list(oracle)  # resources in first-appearance order
    assert bool(view) == bool(oracle)

    # planning timelines: every resource of the grid plus one no one booked
    starts = {
        rid: clock + offset for rid, offset in zip(RESOURCES + ("fresh",), joins)
    }
    pinned = [
        Assignment(f"own{i}", rid, start, start + length)
        for i, (rid, start, length) in enumerate(pinned_spec)
    ]
    cut = foreign_timelines(view, starts, pinned)
    booked = seed_foreign_timelines(oracle, starts, pinned)
    assert list(cut) == list(booked)
    for rid in starts:
        assert _state(cut[rid]) == _state(booked[rid]), rid
        for ready, duration in probes:
            for insertion in (True, False):
                assert cut[rid].earliest_start(
                    ready, duration, insertion=insertion
                ) == booked[rid].earliest_start(ready, duration, insertion=insertion)

    for window in windows:
        for count in (0, 1, len(RESOURCES)):
            ours = predicted_saturation(view, count, clock, window)
            theirs = seed_predicted_saturation(oracle, count, clock, window)
            assert ours.hex() == theirs.hex()


class TestDirectoryAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(_ops)
    def test_random_booking_histories(self, ops):
        planner = MultiTenantPlanner(ResourcePool([Resource(rid) for rid in RESOURCES]))
        clock = 0.0
        keys = []
        for op in ops:
            kind = op[0]
            if kind == "register":
                key = f"w{len(keys)}"
                planner._enter(_workflow(key, len(keys), _schedule(key, op[1])), clock)
                keys.append(key)
            elif kind == "rebook" and keys:
                # adopt or perf repair: the workflow leaves the directory
                # for its turn, then books its (possibly overlapping) plan
                wf = planner._active[keys[op[1] % len(keys)]]
                if wf.completed_at is None and not wf.finished_by(clock):
                    planner._bookings.release(wf.key)
                    wf.schedule = _schedule(wf.key, op[2])
                    planner._bookings.book(wf.key, wf.schedule, clock)
            elif kind == "advance":
                clock += op[1]
            elif kind == "complete":
                for wf in planner.workflows():
                    if wf.completed_at is None and wf.finished_by(clock):
                        planner._mark_completed(wf)
            elif kind == "query":
                exclude = None
                if op[1] is not None and keys:
                    exclude = keys[op[1] % len(keys)]
                _check_query(planner, clock, exclude, *op[2:])

    def test_views_are_snapshots(self):
        directory = BookingDirectory()
        first = Schedule()
        first.add(Assignment("a", "r0", 0.0, 10.0))
        directory.book("w0", first, 0.0)
        before = directory.view(0.0)
        second = Schedule()
        second.add(Assignment("b", "r0", 10.0, 20.0))
        directory.book("w1", second, 0.0)
        directory.release("w0")
        assert dict(before) == {"r0": [(0.0, 10.0)]}
        assert dict(directory.view(0.0)) == {"r0": [(10.0, 20.0)]}

    def test_queries_cannot_go_back_in_time(self):
        directory = BookingDirectory()
        directory.view(5.0)
        with pytest.raises(ValueError, match="queried at"):
            directory.view(4.0)

    def test_late_duplicates_vanish_with_their_workflow(self):
        planner = MultiTenantPlanner(ResourcePool([Resource(rid) for rid in RESOURCES]))
        schedule = Schedule()
        schedule.add(Assignment("a", "r0", 0.0, 10.0))
        schedule.add_duplicate(Assignment("a", "r1", 0.0, 15.0))
        planner._enter(_workflow("w0", 0, schedule), 0.0)
        assert dict(planner.busy_view(None, 5.0)) == {
            "r0": [(0.0, 10.0)],
            "r1": [(0.0, 15.0)],
        }
        # finished by its makespan: the duplicate still running on r1 goes too
        assert dict(planner.busy_view(None, 10.0)) == {}
        assert seed_busy_view(planner, None, 10.0) == {}


class TestMergeRules:
    """Planning merges overlapping spans; saturation merges touching ones."""

    def _timeline(self, spans):
        return foreign_timelines({"r0": spans}, {"r0": 0.0}, ())["r0"]

    def test_planning_merges_only_overlap_beyond_eps(self):
        # overlapping by 2·eps: one group
        merged = self._timeline([(0.0, 10.0), (10.0 - 2 * TIME_EPS, 20.0)])
        assert [iv[:2] for iv in merged.intervals()] == [(0.0, 20.0)]
        # overlapping by eps/2 (a touch): two intervals, as occupy allows
        apart = self._timeline([(0.0, 10.0), (10.0 - TIME_EPS / 2, 20.0)])
        assert [iv[:2] for iv in apart.intervals()] == [
            (0.0, 10.0),
            (10.0 - TIME_EPS / 2, 20.0),
        ]

    def test_groups_opening_at_one_start_book_like_occupy(self):
        # 1.0 + TIME_EPS is a hair over TIME_EPS long, yet fl(its finish -
        # TIME_EPS) == 1.0: the next span opens a second group at the same
        # start, which occupy books off its tail-append path
        spans = [(1.0, 1.0 + TIME_EPS), (1.0, 2.0), (3.0, 4.0)]
        for available_from in (0.0, 1.0 + TIME_EPS / 2, 2.5):
            cut = foreign_timelines({"r0": spans}, {"r0": available_from}, ())
            booked = seed_foreign_timelines({"r0": spans}, {"r0": available_from}, ())
            assert _state(cut["r0"]) == _state(booked["r0"])
            if available_from == 0.0:
                assert _state(cut["r0"])[1] == spans

    def test_planning_skips_spans_without_extent(self):
        timeline = self._timeline([(1.0, 1.0), (1.5, 1.5 + TIME_EPS / 2), (2.0, 3.0)])
        assert [iv[:2] for iv in timeline.intervals()] == [(2.0, 3.0)]

    def test_saturation_merges_touching_spans(self):
        gap = TIME_EPS / 2
        touching = {"r0": [(0.0, 10.0), (10.0 + gap, 20.0)]}
        # one group [0, 20]: the sub-eps gap counts as booked
        assert predicted_saturation(touching, 1, 0.0, 40.0) == 20.0 / 40.0
        apart = {"r0": [(0.0, 10.0), (10.0 + 2 * TIME_EPS, 20.0)]}
        expected = (10.0 + (20.0 - (10.0 + 2 * TIME_EPS))) / 40.0
        assert predicted_saturation(apart, 1, 0.0, 40.0) == expected

    def test_zero_length_spans_bridge_saturation_groups(self):
        gap = 0.75 * TIME_EPS
        bridged = {"r0": [(0.0, 10.0), (10.0 + gap, 10.0 + gap), (10.0 + 2 * gap, 20.0)]}
        assert predicted_saturation(bridged, 1, 0.0, 40.0) == 20.0 / 40.0
        assert seed_predicted_saturation(bridged, 1, 0.0, 40.0) == 20.0 / 40.0


# ----------------------------------------------------------------------
# whole runs: the directory against the walk-sort-merge path
# ----------------------------------------------------------------------
_BASE = MultiTenantConfig(
    tenants=3,
    arrival_rate=0.02,
    resources=6,
    v=10,
    parallelism=5,
    max_arrivals=3,
    seed=3,
)


def _multi_run(config: MultiTenantConfig, admission: bool):
    stream = config.build_stream()
    scenario_run = config.build_scenario_run()
    options = {}
    if admission:
        options["admission"] = AdmissionConfig(
            saturation_threshold=0.5, stretch_limit=2.0, max_deferrals=2
        )
    raw = repro.run(
        stream,
        scenario_run.pool,
        mode="multi",
        perf_profile=scenario_run.profile,
        policy=config.policy,
        tenant_weights=stream.weights(),
        strategy=config.strategy,
        **options,
    ).raw
    try:
        timelines = {
            rid: timeline.intervals()
            for rid, timeline in sorted(raw.shared_timelines().items())
        }
    except ValueError as exc:  # perf-repair transients may overlap
        timelines = str(exc)
    return (
        [
            (
                o.key,
                o.completed_at,
                o.dedicated_span,
                sorted(
                    (a.job_id, a.resource_id, a.start, a.finish)
                    for a in o.schedule.all_assignments()
                ),
                list(o.decisions),
                o.wasted_work,
                o.killed_jobs,
            )
            for o in raw.outcomes
        ],
        [d.as_dict() for d in raw.admission],
        raw.credits,
        timelines,
    )


class TestWholeRuns:
    @pytest.mark.parametrize("strategy", ["aheft", "heft_dup"])
    @pytest.mark.parametrize("admission", [False, True])
    @pytest.mark.parametrize("policy", ["fifo", "credit_drf"])
    @pytest.mark.parametrize(
        "scenario", ["flash_crowd", "degradation", "churn", "departures"]
    )
    def test_directory_matches_the_walk(
        self, monkeypatch, scenario, policy, admission, strategy
    ):
        config = replace(_BASE, scenario=scenario, policy=policy, strategy=strategy)
        ours = _multi_run(config, admission)
        with monkeypatch.context() as patch:
            patch.setattr(MultiTenantPlanner, "busy_view", seed_busy_view)
            patch.setattr(bookings, "foreign_timelines", seed_foreign_timelines)
            patch.setattr(
                admission_module, "predicted_saturation", seed_predicted_saturation
            )
            theirs = _multi_run(config, admission)
        assert ours == theirs
        if admission:
            assert ours[1], "admission made no decisions"
