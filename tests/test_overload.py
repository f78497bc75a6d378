"""Overload-safe multi-tenancy.

Four regression suites for the shared-grid correctness fixes —

* an arrival during a pool gap is deferred to the next capacity point
  instead of killing the whole stream,
* same-instant pool events act as one trigger, and a pool reporting them
  apart is rejected instead of losing one,
* ``consumed_time`` charges duplicate bookings (duplication strategies),
* ``busy_view`` prunes with the same ``TIME_EPS`` tolerance as
  ``finished_by``

— plus the overload-management layer on top: credit scores stay in
(0, 1] under arbitrary completion histories (hypothesis), a permissive
admission controller is bit-identical to no controller on every
registered scenario, and deferred/rejected arrivals never violate the
cross-tenant slot-exclusivity invariant.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import registry
from repro.cli import EXIT_OK, main
from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    predicted_saturation,
)
from repro.core.credit import CreditConfig, CreditLedger
from repro.core.multi_tenant import (
    POLICIES,
    ActiveWorkflow,
    MultiTenantPlanner,
)
from repro.experiments.multi_tenant import MultiTenantConfig, run_multi_tenant_case
from repro.resources.pool import PoolEvent, ResourcePool
from repro.resources.resource import Resource
from repro.scenarios import materialize
from repro.scenarios.library import DepartureScenario, JoinBurstScenario
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import Assignment, Schedule, TIME_EPS
from repro.workload.streams import TenantSpec, WorkflowArrival, WorkloadStream


def _active(key, tenant, seq, spans, *, duplicates=(), dedicated=100.0):
    schedule = Schedule(name=key)
    for index, (rid, start, finish) in enumerate(spans):
        schedule.add(Assignment(f"{key}-j{index}", rid, start, finish))
    for job, rid, start, finish in duplicates:
        schedule.add_duplicate(Assignment(job, rid, start, finish))
    return ActiveWorkflow(
        key=key,
        tenant=tenant,
        seq=seq,
        arrival_time=0.0,
        kind="random",
        workflow=None,
        costs=None,
        scheduler=AHEFTScheduler(),
        schedule=schedule,
        dedicated_span=dedicated,
    )


def _run_multi(arrivals, pool, **options):
    return repro.run(arrivals, pool, mode="multi", **options).raw


# ----------------------------------------------------------------------
# fix 1: arrivals during a pool gap defer instead of crashing the stream
# ----------------------------------------------------------------------
class TestEmptyPoolDeferral:
    def _gap_pool(self):
        # capacity in [0, 10) and [50, ∞): empty gap at the arrival
        return ResourcePool(
            [
                Resource("r1", available_until=10.0),
                Resource("r2", available_from=50.0),
            ]
        )

    def test_arrival_in_gap_runs_after_next_join(self, make_case):
        case = make_case(v=6, seed=1)
        arrivals = [WorkflowArrival("t1", 0, 20.0, "random", case, seq=0)]
        result = _run_multi(arrivals, self._gap_pool())
        (outcome,) = result.outcomes
        # flow time is charged from the original submission, not the retry
        assert outcome.arrival_time == 20.0
        assert all(a.start >= 50.0 - TIME_EPS for a in outcome.schedule)
        assert outcome.flow_time > 30.0
        assert outcome.stretch > 1.0

    def test_no_future_capacity_still_raises(self, make_case):
        pool = ResourcePool([Resource("r1", available_until=10.0)])
        case = make_case(v=6, seed=1)
        arrivals = [WorkflowArrival("t1", 0, 20.0, "random", case, seq=0)]
        with pytest.raises(ValueError, match="no resources available"):
            _run_multi(arrivals, pool)

    def test_plan_arrival_still_rejects_empty_pool(self, make_case):
        """The planner-level guard survives; only the executor defers."""
        planner = MultiTenantPlanner(self._gap_pool())
        case = make_case(v=6, seed=1)
        arrival = WorkflowArrival("t1", 0, 20.0, "random", case, seq=0)
        with pytest.raises(ValueError, match="no resources available"):
            planner.plan_arrival(arrival, 20.0)


# ----------------------------------------------------------------------
# fix 2: same-instant pool events are one trigger, never last-writer-wins
# ----------------------------------------------------------------------
class _SplitEventPool(ResourcePool):
    """A pool whose ``events()`` reports one event per joining/leaving
    resource — several same-instant events where ``ResourcePool.events``
    aggregates.  The executor must reject it rather than keep only the
    last."""

    def events(self, *, after=0.0, until=None):
        split = []
        for event in super().events(after=after, until=until):
            for rid in event.removed:
                split.append(PoolEvent(time=event.time, added=(), removed=(rid,)))
            for rid in event.added:
                split.append(PoolEvent(time=event.time, added=(rid,), removed=()))
        return split


class TestSameInstantPoolEvents:
    def _resources(self):
        return [
            Resource("r1", available_until=120.0),
            Resource("r2", available_until=120.0),
            Resource("r3"),
        ]

    def test_split_events_are_rejected(self, make_case):
        case = make_case(v=16, seed=3, omega_dag=100.0)
        arrivals = [WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)]
        with pytest.raises(ValueError, match="two membership events at t=120.0"):
            _run_multi(arrivals, _SplitEventPool(self._resources()))

    def test_both_same_instant_departures_are_applied(self, make_case):
        case = make_case(v=16, seed=3, omega_dag=100.0)
        arrivals = [WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)]
        result = _run_multi(arrivals, ResourcePool(self._resources()))
        (outcome,) = result.outcomes
        # a dropped removal would leave bookings on a departed resource
        for assignment in outcome.schedule.all_assignments():
            if assignment.resource_id in ("r1", "r2"):
                assert assignment.finish <= 120.0 + TIME_EPS
        # and the single merged trigger saw both removals at once
        departure = [d for d in outcome.decisions if "-" in d.event]
        assert departure and any(
            "r1" in d.event and "r2" in d.event for d in departure
        )

    def test_composed_scenarios_firing_at_one_instant(self, make_case):
        """End to end: two scenario parts at the same instant, one trigger."""
        scenario = JoinBurstScenario(at=400.0, fraction=0.5) + DepartureScenario(
            interval=400.0, fraction=0.25, start=0.0, max_events=1
        )
        run = materialize(scenario, initial_size=4, seed=0, horizon=2000.0)
        times = [event.time for event in run.pool.events()]
        assert times.count(400.0) == 1  # join and leave merged at t=400
        case = make_case(v=14, seed=5, omega_dag=300.0)
        arrivals = [WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)]
        result = _run_multi(arrivals, run.pool, perf_profile=run.profile)
        result.shared_timelines()
        events = [d.event for d in result.outcomes[0].decisions if d.time == 400.0]
        assert len(events) == 1 and "+" in events[0] and "-" in events[0]


# ----------------------------------------------------------------------
# fix 3: consumed_time charges duplicate bookings too
# ----------------------------------------------------------------------
class TestConsumedTimeDuplicates:
    def test_duplicates_count_toward_fair_share(self):
        wf = _active(
            "a/0",
            "a",
            0,
            [("r1", 0.0, 50.0)],
            duplicates=(("a/0-j0", "r2", 0.0, 40.0),),
        )
        # 50 main + 40 duplicate, both fully elapsed by t=100
        assert wf.consumed_time(100.0) == pytest.approx(90.0)
        # partially elapsed duplicates are clipped at the clock like mains
        assert wf.consumed_time(20.0) == pytest.approx(40.0)

    def test_served_accounting_matches_busy_view(self):
        """The time fair-share charges equals the span busy_view books."""
        pool = ResourcePool([Resource("r1"), Resource("r2")])
        planner = MultiTenantPlanner(pool, policy="fair_share")
        planner._enter(
            _active(
                "a/0",
                "a",
                0,
                [("r1", 0.0, 50.0)],
                duplicates=(("a/0-j0", "r2", 0.0, 40.0),),
            ),
            0.0,
        )
        served = planner._served_by_tenant(100.0)
        booked = sum(
            finish - start
            for spans in planner.busy_view(None, 0.0).values()
            for start, finish in spans
        )
        assert served["a"] == pytest.approx(booked) == pytest.approx(90.0)


# ----------------------------------------------------------------------
# fix 4: busy_view prunes with the same TIME_EPS as finished_by
# ----------------------------------------------------------------------
class TestBusyViewEpsilon:
    def test_finished_within_eps_does_not_block_capacity(self):
        pool = ResourcePool([Resource("r1")])
        planner = MultiTenantPlanner(pool)
        wf = _active("a/0", "a", 0, [("r1", 0.0, 100.0)])
        planner._enter(wf, 0.0)
        clock = 100.0 - TIME_EPS / 2  # finished_by() is already True here
        assert wf.finished_by(clock)
        assert planner.busy_view(None, clock) == {}

    def test_assignment_within_eps_is_pruned(self):
        pool = ResourcePool([Resource("r1"), Resource("r2")])
        planner = MultiTenantPlanner(pool)
        clock = 100.0
        planner._enter(
            _active(
                "a/0", "a", 0, [("r1", 0.0, clock + TIME_EPS / 2), ("r2", 150.0, 200.0)]
            ),
            0.0,
        )
        assert planner.busy_view(None, clock) == {"r2": [(150.0, 200.0)]}


# ----------------------------------------------------------------------
# credit scores
# ----------------------------------------------------------------------
class TestCreditLedger:
    @given(
        completions=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.booleans(),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_credit_stays_in_unit_interval(self, completions):
        ledger = CreditLedger()
        for stretch, deadline_violated, slo_violated in completions:
            credit = ledger.record_completion(
                "t",
                stretch=stretch,
                deadline_violated=deadline_violated,
                slo_violated=slo_violated,
            )
            assert ledger.config.floor <= credit <= 1.0
            assert 0.5 < ledger.weight("t") <= 1.0

    def test_violations_erode_credit_and_recovery_restores_it(self):
        ledger = CreditLedger(CreditConfig(tail_window=4))
        for _ in range(6):
            ledger.record_completion("t", stretch=10.0, slo_violated=True)
        eroded = ledger.credit("t")
        assert eroded < 0.5
        for _ in range(12):
            ledger.record_completion("t", stretch=1.0)
        assert ledger.credit("t") > eroded

    def test_fresh_tenant_is_trusted(self):
        ledger = CreditLedger()
        assert ledger.credit("unseen") == 1.0
        assert ledger.weight("unseen") == 1.0
        assert ledger.tail_stretch("unseen") == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CreditConfig(floor=0.0)
        with pytest.raises(ValueError):
            CreditConfig(memory=1.0)
        with pytest.raises(ValueError):
            CreditConfig(tail_quantile=1.5)

    def test_snapshot_counts_violations(self):
        ledger = CreditLedger()
        ledger.record_completion("t", stretch=5.0, deadline_violated=True)
        ledger.record_completion("t", stretch=1.0)
        snap = ledger.snapshot()["t"]
        assert snap["completions"] == 2
        assert snap["deadline_violations"] == 1
        assert snap["slo_violations"] == 0


class TestCreditDrfPolicy:
    def test_registered_in_policies(self):
        assert "credit_drf" in POLICIES

    def test_low_credit_tenant_books_later(self):
        pool = ResourcePool([Resource("r1"), Resource("r2")])
        planner = MultiTenantPlanner(pool, policy="credit_drf")
        for _ in range(6):
            planner.credit.record_completion("bad", stretch=20.0, slo_violated=True)
        # equal consumption, 'bad' submitted first: fair_share would tie-
        # break by seq and let 'bad' book first; credit damping flips it
        planner._active["bad/0"] = _active("bad/0", "bad", 0, [("r1", 0.0, 100.0)])
        planner._active["good/0"] = _active("good/0", "good", 1, [("r2", 0.0, 100.0)])
        candidates = list(planner._active.values())
        order = [wf.key for wf in planner.replan_order(candidates, clock=100.0)]
        assert order == ["good/0", "bad/0"]
        fair = MultiTenantPlanner(pool, policy="fair_share")
        fair._active = planner._active
        assert [wf.key for wf in fair.replan_order(candidates, clock=100.0)] == [
            "bad/0",
            "good/0",
        ]

    def test_completions_feed_ledger_during_runs(self, build_scenario):
        specs = [
            TenantSpec(name="t1", arrival_rate=0.01, max_arrivals=3, v=10, slo_stretch=1.0),
            TenantSpec(name="t2", arrival_rate=0.01, max_arrivals=3, v=10, slo_stretch=1.0),
        ]
        stream = WorkloadStream(specs, seed=2, horizon=4000.0)
        run = build_scenario("static", initial_size=3, seed=2)
        result = _run_multi(
            stream.arrivals(),
            run.pool,
            perf_profile=run.profile,
            policy="credit_drf",
            tenant_weights=stream.weights(),
        )
        result.shared_timelines()
        assert set(result.credits) == {"t1", "t2"}
        assert all(0.0 < credit <= 1.0 for credit in result.credits.values())
        # an slo_stretch of 1.0 makes any queueing a violation, so at
        # least one tenant's credit must have moved off the initial 1.0
        assert result.slo_violations() > 0
        assert min(result.credits.values()) < 1.0


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmissionUnits:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(saturation_threshold=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(stretch_limit=0.5)
        with pytest.raises(ValueError):
            AdmissionConfig(max_deferrals=-1)

    def test_predicted_saturation_clips_to_window(self):
        busy = {"r1": [(0.0, 50.0)], "r2": [(25.0, 200.0)]}
        # window [0, 100] over 2 resources = 200 capacity; booked 50 + 75
        assert predicted_saturation(busy, 2, 0.0, 100.0) == pytest.approx(0.625)
        assert predicted_saturation({}, 2, 0.0, 100.0) == 0.0
        assert predicted_saturation(busy, 0, 0.0, 100.0) == 0.0

    def test_overlapping_spans_counted_once(self):
        busy = {"r1": [(0.0, 60.0), (30.0, 90.0)]}
        assert predicted_saturation(busy, 1, 0.0, 100.0) == pytest.approx(0.9)

    def test_reject_after_max_deferrals(self, make_case):
        pool = ResourcePool([Resource("r1", available_from=1000.0)])
        planner = MultiTenantPlanner(pool)
        controller = AdmissionController(AdmissionConfig(max_deferrals=2))
        case = make_case(v=6, seed=1)
        arrival = WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)
        actions = [
            controller.evaluate(planner, arrival, float(clock))[0]
            for clock in (0, 10, 20)
        ]
        assert actions == ["defer", "defer", "reject"]
        assert controller.deferral_count == 2
        assert controller.rejected_keys == ["t1/0"]

    def test_cannot_defer_escalates_to_reject(self, make_case):
        pool = ResourcePool([Resource("r1", available_from=1000.0)])
        planner = MultiTenantPlanner(pool)
        controller = AdmissionController()
        case = make_case(v=6, seed=1)
        arrival = WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)
        action, planned = controller.evaluate(
            planner, arrival, 0.0, can_defer=False
        )
        assert action == "reject" and planned is None


class TestDeferralBookkeeping:
    """Deferral chains are pruned on every terminal decision.

    Regression: `_deferrals` entries from abandoned chains (a deferred
    arrival the caller never re-offered) used to live forever keyed by
    the bare workflow key, so a later arrival reusing the key inherited
    the stale offer count and was rejected before exhausting its own
    deferral budget — and a long-lived stream grew the dict without
    bound.
    """

    def _saturated_planner(self):
        # no capacity until t=1000: every offer below that is throttled
        return MultiTenantPlanner(
            ResourcePool([Resource("r1", available_from=1000.0)])
        )

    def test_stale_chain_does_not_leak_into_resubmission(self, make_case):
        planner = self._saturated_planner()
        controller = AdmissionController(AdmissionConfig(max_deferrals=2))
        case = make_case(v=6, seed=1)
        first = WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)
        assert controller.evaluate(planner, first, 0.0)[0] == "defer"
        assert controller.evaluate(planner, first, 10.0)[0] == "defer"
        # chain abandoned here; a re-submission reusing the key must get
        # the full deferral budget, not the abandoned chain's count
        resubmitted = WorkflowArrival("t1", 0, 500.0, "random", case, seq=1)
        actions = [
            controller.evaluate(planner, resubmitted, clock)[0]
            for clock in (500.0, 510.0, 520.0)
        ]
        assert actions == ["defer", "defer", "reject"]
        assert controller.pending_deferrals == {}

    def test_terminal_decisions_prune_pending_state(self, make_case):
        planner = self._saturated_planner()
        controller = AdmissionController(AdmissionConfig(max_deferrals=1))
        case = make_case(v=6, seed=1)
        arrival = WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)
        assert controller.evaluate(planner, arrival, 0.0)[0] == "defer"
        assert controller.pending_deferrals == {"t1/0": 1}
        assert controller.evaluate(planner, arrival, 10.0)[0] == "reject"
        assert controller.pending_deferrals == {}
        # admit prunes too: permissive gates so only the empty pool
        # throttles, then retry once capacity exists
        permissive = AdmissionController(
            AdmissionConfig(saturation_threshold=1.0, stretch_limit=1e9)
        )
        late = WorkflowArrival("t2", 0, 0.0, "random", case, seq=1)
        assert permissive.evaluate(planner, late, 0.0)[0] == "defer"
        assert permissive.pending_deferrals == {"t2/0": 1}
        assert permissive.evaluate(planner, late, 1500.0)[0] == "admit"
        assert permissive.pending_deferrals == {}

    def test_forget_drops_abandoned_chain(self, make_case):
        planner = self._saturated_planner()
        controller = AdmissionController()
        case = make_case(v=6, seed=1)
        arrival = WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)
        assert controller.evaluate(planner, arrival, 0.0)[0] == "defer"
        assert controller.pending_deferrals == {"t1/0": 1}
        controller.forget("t1/0")
        assert controller.pending_deferrals == {}
        controller.forget("ghost")  # unknown keys are a no-op


class TestAdmissionOffBitIdentity:
    """A permissive controller must change nothing: admission decisions
    are logged but every arrival admits exactly as without a controller,
    on every registered scenario."""

    #: gates that can never fire: saturation is capped at 1.0 and the
    #: comparison is strict, and no plan reaches a 1e9 stretch
    PERMISSIVE = AdmissionConfig(saturation_threshold=1.0, stretch_limit=1e9)

    @pytest.mark.parametrize("scenario_name", registry.available("scenario"))
    def test_permissive_controller_is_identity(self, scenario_name):
        specs = [
            TenantSpec(name="t1", arrival_rate=0.008, max_arrivals=2, v=10),
            TenantSpec(name="t2", arrival_rate=0.008, max_arrivals=2, v=10),
        ]
        stream = WorkloadStream(specs, seed=5, horizon=4000.0)
        runs = {}
        for admission in (None, self.PERMISSIVE):
            run = materialize(
                registry.make("scenario", scenario_name), initial_size=4, seed=5, horizon=4000.0
            )
            runs[admission is not None] = _run_multi(
                stream.arrivals(),
                run.pool,
                perf_profile=run.profile,
                admission=admission,
            )
        plain, gated = runs[False], runs[True]
        assert len(plain.outcomes) == len(gated.outcomes)
        for a, b in zip(plain.outcomes, gated.outcomes):
            assert a.schedule.to_dict() == b.schedule.to_dict()
            assert a.completed_at == b.completed_at
            assert a.dedicated_span == b.dedicated_span
            assert [
                (d.time, d.event, d.adopted) for d in a.decisions
            ] == [(d.time, d.event, d.adopted) for d in b.decisions]
        assert not plain.admission
        assert gated.admission and all(
            d.action == "admit" for d in gated.admission
        )


class TestAdmissionUnderOverload:
    def _overload_config(self, **overrides):
        base = MultiTenantConfig(
            tenants=3,
            arrival_rate=0.02,
            resources=8,
            v=12,
            parallelism=6,
            max_arrivals=4,
            scenario="flash_crowd",
            seed=0,
        )
        return replace(base, **overrides)

    def test_admission_bounds_tail_stretch_under_flash_crowd(self):
        off = run_multi_tenant_case(self._overload_config())
        on = run_multi_tenant_case(
            self._overload_config(
                admission=True,
                stretch_limit=3.0,
                saturation_threshold=0.8,
                max_deferrals=3,
            )
        )
        off, on = off.metrics, on.metrics
        assert on.rejected + on.deferrals > 0
        assert on.p99_stretch < off.p99_stretch
        assert on.workflows + on.rejected == off.workflows

    def test_deferred_arrivals_keep_cross_tenant_exclusivity(self):
        on = run_multi_tenant_case(
            self._overload_config(
                admission=True,
                stretch_limit=2.0,
                saturation_threshold=0.5,
                max_deferrals=5,
            )
        )
        assert on.metrics.deferrals > 0
        on.result.shared_timelines()  # raises on any overlapping slot

    def test_rejected_workflows_produce_no_outcome(self):
        on = run_multi_tenant_case(
            self._overload_config(
                admission=True,
                stretch_limit=2.0,
                saturation_threshold=0.5,
                max_deferrals=0,
            )
        )
        rejected = set(on.result.rejected_keys())
        assert rejected
        assert rejected.isdisjoint({o.key for o in on.result.outcomes})
        assert 0.0 < on.rejection_rate <= 1.0


class TestOneBusyViewPerOffer:
    """An offer reads the busy view once: the one it was planned against."""

    def _flash_crowd(self):
        return MultiTenantConfig(
            tenants=3,
            arrival_rate=0.02,
            resources=8,
            v=12,
            parallelism=6,
            max_arrivals=4,
            scenario="flash_crowd",
            seed=0,
            admission=True,
            stretch_limit=2.0,
            saturation_threshold=0.5,
            max_deferrals=2,
        )

    def test_one_offer_builds_one_busy_view(self, monkeypatch):
        calls = []
        busy_view = MultiTenantPlanner.busy_view
        evaluate = AdmissionController.evaluate

        def counting_busy_view(planner, exclude_key, clock):
            calls.append(clock)
            return busy_view(planner, exclude_key, clock)

        per_offer = []

        def counting_evaluate(controller, planner, arrival, clock, **kwargs):
            before = len(calls)
            outcome = evaluate(controller, planner, arrival, clock, **kwargs)
            if outcome[1] is not None:
                per_offer.append(len(calls) - before)
            return outcome

        monkeypatch.setattr(MultiTenantPlanner, "busy_view", counting_busy_view)
        monkeypatch.setattr(AdmissionController, "evaluate", counting_evaluate)
        run_multi_tenant_case(self._flash_crowd())
        assert per_offer and set(per_offer) == {1}

    def test_saturation_matches_a_fresh_view_after_planning(self, monkeypatch):
        plan_arrival = MultiTenantPlanner.plan_arrival
        offers = []

        def recording_plan_arrival(planner, arrival, clock):
            planned = plan_arrival(planner, arrival, clock)
            fresh = planner.busy_view(None, clock)
            assert planned.busy == fresh
            offers.append(
                (clock, fresh, planned.dedicated_span, len(planner.pool.available_at(clock)))
            )
            return planned

        monkeypatch.setattr(MultiTenantPlanner, "plan_arrival", recording_plan_arrival)
        run = run_multi_tenant_case(self._flash_crowd())
        decisions = run.result.admission
        assert {d.action for d in decisions} >= {"admit", "defer"}
        assert len(decisions) == len(offers)
        min_window = AdmissionConfig().min_window
        for decision, (clock, fresh, span, count) in zip(decisions, offers):
            assert decision.time == clock
            expected = predicted_saturation(fresh, count, clock, max(span, min_window))
            assert decision.saturation == expected


# ----------------------------------------------------------------------
# deadlines / SLOs on the workload layer
# ----------------------------------------------------------------------
class TestServiceTargets:
    def test_tenant_spec_validation(self):
        with pytest.raises(ValueError, match="deadline_factor"):
            TenantSpec(name="t1", deadline_factor=0.0)
        with pytest.raises(ValueError, match="slo_stretch"):
            TenantSpec(name="t1", slo_stretch=0.5)

    def test_targets_flow_through_stream_to_outcomes(self, make_case):
        spec = TenantSpec(
            name="t1",
            trace=(0.0,),
            mix=(("random", 1.0),),
            v=8,
            deadline_factor=2.0,
            slo_stretch=3.0,
        )
        stream = WorkloadStream([spec], seed=1, horizon=100.0)
        (arrival,) = stream.arrivals()
        assert arrival.deadline_factor == 2.0
        assert arrival.slo_stretch == 3.0
        pool = ResourcePool([Resource("r1"), Resource("r2")])
        result = _run_multi(stream.arrivals(), pool)
        (outcome,) = result.outcomes
        assert outcome.deadline == pytest.approx(2.0 * outcome.dedicated_span)
        assert outcome.slo_stretch == 3.0
        # alone on the grid: completion == dedicated span, no violations
        assert not outcome.deadline_violated
        assert not outcome.slo_violated

    def test_violation_flags_fire_under_contention(self, make_case):
        pool = ResourcePool([Resource("r1")])  # pure queueing
        cases = [make_case(v=8, seed=s) for s in (1, 2)]
        arrivals = [
            WorkflowArrival(
                "t1", 0, 0.0, "random", cases[0], seq=0,
                deadline_factor=1.1, slo_stretch=1.1,
            ),
            WorkflowArrival(
                "t2", 0, 0.0, "random", cases[1], seq=1,
                deadline_factor=1.1, slo_stretch=1.1,
            ),
        ]
        result = _run_multi(arrivals, pool)
        assert result.deadline_violations() >= 1
        assert result.slo_violations() >= 1


# ----------------------------------------------------------------------
# CLI + ledger threading
# ----------------------------------------------------------------------
class TestOverloadCli:
    def test_multi_admission_flag_writes_overload_columns(self, tmp_path: Path):
        out = tmp_path / "overload.json"
        code = main(
            [
                "multi",
                "--tenants",
                "3",
                "--arrival-rate",
                "0.02",
                "--scenario",
                "flash_crowd",
                "--policies",
                "credit_drf",
                "--admission",
                "--stretch-limit",
                "3.0",
                "--saturation-threshold",
                "0.8",
                "--max-deferrals",
                "3",
                "--quick",
                "--seed",
                "0",
                "--name",
                "overload_cli",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        ledger = json.loads(out.read_text())
        assert ledger["admission"] is True
        assert ledger["base_config"]["admission"] is True
        (point,) = ledger["points"]
        assert point["admission"] is True
        assert point["p99_stretch"] > 0.0
        assert point["rejected"] + point["deferrals"] >= 0
        for tenant_metrics in point["per_tenant"].values():
            assert 0.0 < tenant_metrics["credit"] <= 1.0

    def test_bad_admission_options_rejected(self):
        from repro.cli import EXIT_ERROR

        argv = ["multi", "--quick", "--admission"]
        for bad in (
            ["--stretch-limit", "0.5"],
            ["--saturation-threshold", "1.5"],
            ["--max-deferrals", "-1"],
        ):
            assert main(argv + bad) == EXIT_ERROR

    def test_facade_metrics_surface_overload_numbers(self):
        config = MultiTenantConfig(
            tenants=3,
            arrival_rate=0.02,
            resources=8,
            v=12,
            parallelism=6,
            max_arrivals=4,
            scenario="flash_crowd",
            seed=0,
        )
        stream = config.build_stream()
        run = config.build_scenario_run()
        result = repro.run(
            stream,
            run.pool,
            mode="multi",
            perf_profile=run.profile,
            admission=AdmissionConfig(stretch_limit=2.0, saturation_threshold=0.5),
            policy="credit_drf",
        )
        metrics = result.metrics
        assert "rejected_workflows" in metrics
        assert "deferred_offers" in metrics
        assert metrics["deferred_offers"] + metrics["rejected_workflows"] > 0
        assert set(metrics["credits"]) <= {"t1", "t2", "t3"}
