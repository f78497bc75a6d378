"""Universal scheduler-invariant suite (ISSUE-5).

One harness, parametrized over **every** strategy in the scheduling
registry — a newly registered strategy is property-tested here without
writing a single new test:

* **completeness** — every workflow job receives a primary assignment;
* **precedence** — consumers start only after their inputs are available
  (duplicate copies counting as data sources);
* **no overlap** — assignments (duplicates included) never collide on a
  resource;
* **foreign busy bookings** — slots booked by other tenants are binding:
  nothing the scheduler places (primary or duplicate) may intersect them;
* **determinism** — two identical calls produce bit-identical schedules;
* **adaptive completion** — every strategy with the ``reschedule``
  interface drives the full adaptive loop (``repro.run(..., mode="adaptive",
  strategy=...)``)
  to a feasible final schedule under every registered scenario, and a
  mid-execution replan around busy blocks keeps pinned work pinned;
* **bad input** — a duplicated resource id or a NaN clock raises a
  ``ValueError`` naming the problem;
* **one driver** — a replan at clock 0 with no history is the initial plan,
  and which strategies replan is pinned.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import registry
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scenarios import materialize
from repro.scheduling import (
    ExecutionState,
    validate_schedule,
)
from repro.scheduling.base import TIME_EPS
from repro.scheduling.bookings import BookingDirectory

ALL_STRATEGIES = registry.available("scheduler")
ADAPTIVE_STRATEGIES = [
    name for name in ALL_STRATEGIES if hasattr(registry.make("scheduler", name), "reschedule")
]

RESOURCES = ("r1", "r2", "r3", "r4")

#: strategy -> whether it replans (exposes ``reschedule``)
REPLANS = {
    "aheft": True,
    "cpop": True,
    "heft_dup": True,
    "lookahead_heft": True,
    "mincost_flow": True,
    "minmin": True,
    "maxmin": True,
    "sufferage": True,
    "heft": False,
    "olb": False,
    "random_static": False,
}


def _case(v: int, seed: int):
    params = RandomDAGParameters(v=v, out_degree=0.25, ccr=1.0, beta=0.5, omega_dag=80.0)
    return generate_random_case(params, seed=seed)


def _random_busy(seed: int, resources=RESOURCES, horizon: float = 600.0):
    """Deterministic foreign bookings: a few disjoint spans per resource."""
    rng = np.random.default_rng(seed)
    busy = {}
    for rid in resources:
        count = int(rng.integers(0, 4))
        if count == 0:
            continue
        points = np.sort(rng.uniform(0.0, horizon, size=2 * count))
        spans = [
            (float(points[2 * i]), float(points[2 * i + 1]))
            for i in range(count)
            if points[2 * i + 1] - points[2 * i] > 1.0
        ]
        if spans:
            busy[rid] = spans
    return busy


def _assert_respects_busy(schedule, busy):
    for assignment in schedule.all_assignments():
        for span_start, span_finish in busy.get(assignment.resource_id, ()):
            overlap = (
                assignment.start < span_finish - TIME_EPS
                and span_start < assignment.finish - TIME_EPS
            )
            assert not overlap, (
                f"{assignment.job_id} on {assignment.resource_id} "
                f"[{assignment.start}, {assignment.finish}) intersects busy "
                f"[{span_start}, {span_finish})"
            )


def _serialized(schedule):
    return (schedule.to_dict(), schedule.duplicates_to_dict())


class TestUniversalInvariants:
    """Every registered strategy, one property harness."""

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    @settings(max_examples=6, deadline=None)
    @given(
        v=st.integers(min_value=6, max_value=28),
        case_seed=st.integers(min_value=0, max_value=10**6),
        busy_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_schedule_is_feasible_respects_busy_and_is_deterministic(
        self, name, v, case_seed, busy_seed
    ):
        case = _case(v=v, seed=case_seed)
        scheduler = registry.make("scheduler", name)
        busy = _random_busy(busy_seed)

        schedule = scheduler.schedule(case.workflow, case.costs, list(RESOURCES))
        # completeness + precedence (duplicate-aware) + no overlap
        validate_schedule(case.workflow, case.costs, schedule)

        booked = scheduler.schedule(
            case.workflow, case.costs, list(RESOURCES), busy=busy
        )
        validate_schedule(case.workflow, case.costs, booked)
        _assert_respects_busy(booked, busy)

        # determinism: bit-identical output on identical inputs
        again = registry.make("scheduler", name).schedule(
            case.workflow, case.costs, list(RESOURCES), busy=busy
        )
        assert _serialized(again) == _serialized(booked)

    @pytest.mark.parametrize("name", ADAPTIVE_STRATEGIES)
    def test_midrun_reschedule_pins_executed_work_and_respects_busy(self, name):
        case = _case(v=22, seed=41)
        scheduler = registry.make("scheduler", name)
        plan = scheduler.schedule(case.workflow, case.costs, list(RESOURCES))
        clock = plan.makespan() * 0.5
        state = ExecutionState.from_schedule(plan, clock, jobs=case.workflow.jobs)
        busy = {"r2": [(clock + 10.0, clock + 60.0)]}
        replanned = scheduler.reschedule(
            case.workflow,
            case.costs,
            list(RESOURCES),
            clock=clock,
            previous_schedule=plan,
            execution_state=state,
            busy=busy,
        )
        validate_schedule(case.workflow, case.costs, replanned)
        # finished jobs keep their actual history; running jobs stay put
        for job in case.workflow.jobs:
            if state.is_finished(job):
                assert replanned.get(job) == plan.get(job)
            elif state.is_running(job):
                assert replanned.resource_of(job) == plan.resource_of(job)
        # new work plans around the foreign booking (pinned work may predate it)
        for assignment in replanned.all_assignments():
            if assignment.start >= clock - TIME_EPS:
                _assert_respects_busy(_single(assignment), busy)

    @pytest.mark.parametrize("name", ADAPTIVE_STRATEGIES)
    @pytest.mark.parametrize("scenario_name", registry.available("scenario"))
    def test_adaptive_mode_completes_under_every_scenario(self, name, scenario_name):
        case = _case(v=16, seed=13)
        run = materialize(registry.make("scenario", scenario_name), initial_size=5, seed=7)
        result = repro.run(
            case.workflow,
            run.pool,
            costs=case.costs,
            mode="adaptive",
            perf_profile=run.profile,
            strategy=name,
        ).raw
        validate_schedule(
            case.workflow, case.costs, result.final_schedule, pool=run.pool
        )
        assert result.makespan > 0


class TestBadKernelInput:
    """Malformed kernel input raises a named error from every strategy."""

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_duplicate_resource_id_is_named(self, name):
        case = _case(v=10, seed=2)
        with pytest.raises(ValueError, match="duplicate resource id 'r1'"):
            registry.make("scheduler", name).schedule(
                case.workflow, case.costs, ["r1", "r1", "r2"]
            )

    @pytest.mark.parametrize("name", ADAPTIVE_STRATEGIES)
    def test_nan_clock_is_rejected(self, name):
        case = _case(v=10, seed=2)
        scheduler = registry.make("scheduler", name)
        plan = scheduler.schedule(case.workflow, case.costs, list(RESOURCES))
        with pytest.raises(ValueError, match="clock must be a non-negative number"):
            scheduler.reschedule(
                case.workflow,
                case.costs,
                list(RESOURCES),
                clock=float("nan"),
                previous_schedule=plan,
            )


class TestOneDriver:
    """Every strategy is one ``place(frame)`` policy behind one driver."""

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_capability_table(self, name):
        assert name in REPLANS, f"declare whether {name!r} replans in REPLANS"
        assert hasattr(registry.make("scheduler", name), "reschedule") is REPLANS[name]

    def test_capability_table_names_only_registered_strategies(self):
        assert set(REPLANS) <= set(ALL_STRATEGIES)

    @pytest.mark.parametrize("name", ADAPTIVE_STRATEGIES)
    @pytest.mark.parametrize("booked", [False, True])
    def test_clock_zero_replan_is_the_initial_plan(self, name, booked):
        case = _case(v=24, seed=17)
        busy = None
        if booked:
            # another tenant's plan, seen through the booking directory
            directory = BookingDirectory()
            other = _case(v=12, seed=18)
            directory.book(
                "other",
                registry.make("scheduler", "heft").schedule(
                    other.workflow, other.costs, list(RESOURCES)
                ),
                0.0,
            )
            busy = directory.view(0.0)
            assert busy
        planned = registry.make("scheduler", name).schedule(
            case.workflow, case.costs, list(RESOURCES), busy=busy
        )
        replanned = registry.make("scheduler", name).reschedule(
            case.workflow,
            case.costs,
            list(RESOURCES),
            clock=0.0,
            previous_schedule=None,
            busy=busy,
        )
        assert _serialized(replanned) == _serialized(planned)


def _single(assignment):
    """A one-assignment schedule so busy-respect can reuse the helper."""
    from repro.scheduling.base import Schedule

    out = Schedule(name="probe")
    out.add(assignment)
    return out


class TestRegistryContract:
    """The registry exposes the acceptance-criteria strategy set."""

    def test_required_strategies_are_registered(self):
        required = {
            "heft",
            "aheft",
            "minmin",
            "maxmin",
            "sufferage",
            "cpop",
            "lookahead_heft",
            "heft_dup",
        }
        assert required <= set(ALL_STRATEGIES)
        assert len(ALL_STRATEGIES) >= 8

    def test_fresh_registration_is_covered_for_free(self):
        """A strategy registered at runtime is instantly addressable."""
        from repro.scheduling.heft import HEFTScheduler
        from repro.scheduling.registry import SCHEDULERS, register_scheduler

        name = "only_for_this_test"
        register_scheduler(name, kind="static", summary="ephemeral")(HEFTScheduler)
        try:
            assert name in registry.available("scheduler")
            scheduler = registry.make("scheduler", name)
            case = _case(v=8, seed=1)
            schedule = scheduler.schedule(case.workflow, case.costs, list(RESOURCES))
            validate_schedule(case.workflow, case.costs, schedule)
        finally:
            SCHEDULERS.pop(name, None)
