"""Tests for the scenario engine (repro.scenarios).

Covers the ISSUE-2 guarantees:

* every registered scenario (and random compositions of scenario parts)
  materialises into a *valid* event stream — times monotone, departures
  only remove present resources, the pool never drops below one resource;
* the ``static`` scenario reproduces PR-1's bit-identical schedules;
* the ``paper`` scenario is pool-equivalent to the (R, Δ, δ)
  ``ResourceChangeModel`` and yields the same adaptive runs;
* departures and performance changes flow end to end through the adaptive
  loop (kills, wasted work, forced adoptions) and the cost scaling.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.resources.dynamics import ResourceChangeModel, StaticResourceModel
from repro.scenarios import (
    ChurnScenario,
    DegradationScenario,
    DepartureScenario,
    JoinBurstScenario,
    LoadSpikeScenario,
    PaperJoinScenario,
    ScaledCostModel,
    ScenarioError,
    ScenarioEvent,
    StaticScenario,
    available_scenarios,
    compose,
    make_scenario,
    materialize,
    scenario_summary,
    validate_events,
)
from repro.scheduling.heft import heft_schedule


@pytest.fixture
def case30(make_case):
    return make_case(v=30, seed=11)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_required_adversarial_scenarios_registered(self):
        names = available_scenarios()
        for required in ("departures", "degradation", "load_spike", "churn"):
            assert required in names

    def test_every_registered_scenario_materialises(self):
        for name in available_scenarios():
            run = materialize(make_scenario(name), initial_size=6, seed=1)
            validate_events(run.events, initial_size=6)
            assert len(run.pool.available_at(0.0)) == 6
            assert scenario_summary(name)

    def test_unknown_scenario_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            make_scenario("does-not-exist")

    def test_params_round_trip_into_factory(self):
        scenario = make_scenario("churn", interval=100.0, join_fraction=0.5)
        assert scenario.params()["interval"] == 100.0
        assert scenario.params()["join_fraction"] == 0.5


# ----------------------------------------------------------------------
# stream validity (property-based)
# ----------------------------------------------------------------------
_PARTS = st.sampled_from(
    [
        StaticScenario(),
        PaperJoinScenario(interval=50.0, fraction=0.2, max_events=10),
        PaperJoinScenario(interval=120.0, fraction=0.4, max_events=6),
        DepartureScenario(interval=75.0, fraction=0.3, max_events=6),
        DepartureScenario(interval=200.0, fraction=0.6, max_events=4),
        JoinBurstScenario(at=90.0, fraction=1.0),
        ChurnScenario(interval=60.0, join_fraction=0.3, leave_fraction=0.3, max_events=8),
        DegradationScenario(at=40.0, fraction=0.5, factor=3.0, recover_at=300.0),
        LoadSpikeScenario(start=30.0, duration=100.0, factor=2.0),
    ]
)


class TestStreamValidity:
    @settings(max_examples=60, deadline=None)
    @given(
        parts=st.lists(_PARTS, min_size=1, max_size=4),
        initial_size=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_composition_materialises_validly(self, parts, initial_size, seed):
        scenario = compose(*parts)
        run = materialize(scenario, initial_size=initial_size, seed=seed)
        # validate_events re-checks monotone times and pool-never-below-one
        validate_events(run.events, initial_size=initial_size)
        times = [event.time for event in run.events]
        assert times == sorted(times)
        assert all(time > 0 for time in times)
        # the concrete pool agrees: at least one resource at every instant
        checkpoints = [0.0] + times + [time + 1e-9 for time in times]
        for when in checkpoints:
            assert len(run.pool.available_at(when)) >= 1
        # departures only ever removed resources that had already joined
        for rid in run.pool.all_resource_ids():
            res = run.pool.resource(rid)
            if res.available_until is not None:
                assert res.available_until > res.available_from
        # perf factors are positive everywhere
        for when in checkpoints:
            for rid in run.pool.available_at(when):
                assert run.profile.factor_at(rid, when) > 0

    def test_monotonicity_violation_rejected(self):
        events = [ScenarioEvent(time=10.0, join=1), ScenarioEvent(time=5.0, join=1)]
        with pytest.raises(ScenarioError, match="non-decreasing"):
            validate_events(events, initial_size=3)

    def test_pool_underflow_rejected(self):
        events = [ScenarioEvent(time=10.0, leave=3)]
        with pytest.raises(ScenarioError, match="at least one resource"):
            validate_events(events, initial_size=3)

    def test_materialize_clamps_draining_departures(self):
        # 4 departures/event on a pool of 3 can never be realised fully;
        # the materialiser clamps instead of producing an invalid stream.
        scenario = DepartureScenario(interval=10.0, fraction=2.0, max_events=5)
        run = materialize(scenario, initial_size=3, seed=0)
        validate_events(run.events, initial_size=3)
        assert len(run.pool.available_at(1e9)) >= 1

    def test_event_validation_in_constructor(self):
        with pytest.raises(ScenarioError):
            ScenarioEvent(time=0.0, join=1)
        with pytest.raises(ScenarioError):
            ScenarioEvent(time=1.0, join=-1)
        with pytest.raises(ScenarioError):
            ScenarioEvent(time=1.0, perf=((2, -1.0),))


# ----------------------------------------------------------------------
# equivalence with the PR-1 world
# ----------------------------------------------------------------------
class TestPaperEquivalence:
    def test_static_scenario_reproduces_static_model_schedule(self, case30):
        """The ``static`` scenario must be bit-identical to PR-1's path."""
        scenario_pool = materialize(StaticScenario(), initial_size=8, seed=0).pool
        model_pool = StaticResourceModel(size=8).build_pool()
        assert scenario_pool.all_resource_ids() == model_pool.all_resource_ids()
        a = heft_schedule(case30.workflow, case30.costs, scenario_pool.available_at(0.0))
        b = heft_schedule(case30.workflow, case30.costs, model_pool.available_at(0.0))
        assert a.to_dict() == b.to_dict()

    def test_paper_scenario_matches_resource_change_model(self, case30):
        """Joins-only scenario ≡ ResourceChangeModel: same pool, same runs."""
        model = ResourceChangeModel(initial_size=8, interval=400.0, fraction=0.2)
        scenario = PaperJoinScenario(interval=400.0, fraction=0.2)
        run = materialize(scenario, initial_size=8, seed=0)

        model_pool = model.build_pool()
        horizon = 8000.0
        for event_a, event_b in zip(
            run.pool.events(), model_pool.events(until=horizon)
        ):
            assert event_a.time == event_b.time
            assert event_a.added == event_b.added
            assert event_a.removed == event_b.removed

        adaptive_model = repro.run(
            case30.workflow, model_pool, costs=case30.costs, mode="adaptive"
        ).raw
        adaptive_scenario = repro.run(
            case30.workflow, run.pool, costs=case30.costs, mode="adaptive", perf_profile=run.profile
        ).raw
        assert adaptive_model.makespan < horizon  # guard: events cover the run
        assert adaptive_scenario.makespan == adaptive_model.makespan
        assert adaptive_scenario.final_schedule.to_dict() == (
            adaptive_model.final_schedule.to_dict()
        )
        assert (
            adaptive_scenario.rescheduling_count == adaptive_model.rescheduling_count
        )

    def test_change_model_bridges_to_scenario(self):
        model = ResourceChangeModel(
            initial_size=5, interval=100.0, fraction=0.2, leave_fraction=0.2
        )
        scenario = model.to_scenario()
        assert "paper" in scenario.name and "departures" in scenario.name
        run = materialize(scenario, initial_size=5, seed=0)
        assert any(event.leave for event in run.events)
        assert StaticResourceModel(size=3).to_scenario().name == "static"


# ----------------------------------------------------------------------
# cost scaling
# ----------------------------------------------------------------------
class TestScaledCostModel:
    def test_scales_computation_only(self, case30):
        base = case30.costs
        scaled = ScaledCostModel(base, {"r1": 2.0})
        jobs = case30.workflow.jobs
        assert scaled.computation_cost(jobs[0], "r1") == pytest.approx(
            2.0 * base.computation_cost(jobs[0], "r1")
        )
        assert scaled.computation_cost(jobs[0], "r2") == base.computation_cost(
            jobs[0], "r2"
        )
        assert scaled.has_uniform_communication == base.has_uniform_communication
        edges = case30.workflow.edges()
        if edges:
            src, dst = edges[0][0], edges[0][1]
            assert scaled.communication_cost(src, dst, "r1", "r2") == (
                base.communication_cost(src, dst, "r1", "r2")
            )

    def test_identity_factors_schedule_identically(self, case30):
        resources = [f"r{i}" for i in range(1, 6)]
        base = heft_schedule(case30.workflow, case30.costs, resources)
        scaled = heft_schedule(
            case30.workflow, ScaledCostModel(case30.costs, {}), resources
        )
        assert base.to_dict() == scaled.to_dict()

    def test_profile_snapshot(self, case30):
        run = materialize(
            DegradationScenario(at=100.0, fraction=0.5, factor=2.0, recover_at=200.0),
            initial_size=4,
            seed=0,
        )
        degraded = run.profile.state_at(150.0)
        assert degraded and all(f == 2.0 for f in degraded.values())
        assert run.profile.state_at(250.0) == {}
        assert run.profile.scaled_costs(case30.costs, 250.0) is case30.costs


# ----------------------------------------------------------------------
# adversarial dynamics end to end
# ----------------------------------------------------------------------
class TestAdversarialRuns:
    def test_departures_kill_and_force_replan(self, case30):
        run = materialize(
            DepartureScenario(interval=60.0, fraction=0.4, max_events=2),
            initial_size=6,
            seed=2,
        )
        assert any(event.leave for event in run.events)
        adaptive = repro.run(
            case30.workflow, run.pool, costs=case30.costs, mode="adaptive", perf_profile=run.profile
        ).raw
        forced = [d for d in adaptive.decisions if d.forced]
        assert forced and all(d.adopted for d in forced)
        # accurate estimates execute exactly as planned, kills included
        assert adaptive.trace.to_schedule().to_dict() == adaptive.final_schedule.to_dict()
        killed = {kill.job_id for kill in adaptive.trace.kills}
        assert killed and adaptive.killed_jobs == len(killed)
        assert adaptive.wasted_work == sum(kill.wasted for kill in adaptive.trace.kills)
        # no unfinished work remains mapped beyond a resource's departure
        for assignment in adaptive.final_schedule:
            until = run.pool.resource(assignment.resource_id).available_until
            if until is not None:
                assert assignment.finish <= until + 1e-6

    def test_all_strategies_complete_under_every_scenario(self, case30):
        for name in available_scenarios():
            run = materialize(make_scenario(name), initial_size=8, seed=4)
            for mode in ("static", "adaptive", "dynamic"):
                result = repro.run(
                    case30.workflow, run.pool, costs=case30.costs, mode=mode,
                    perf_profile=run.profile,
                ).raw
                assert result.makespan > 0
                assert math.isfinite(result.makespan)

    def test_degradation_slows_static_execution(self, case30):
        nominal = materialize(StaticScenario(), initial_size=6, seed=0)
        degraded = materialize(
            LoadSpikeScenario(start=1.0, duration=1e7, factor=2.0),
            initial_size=6,
            seed=0,
        )
        fast = repro.run(
            case30.workflow, nominal.pool, costs=case30.costs, mode="static",
            perf_profile=nominal.profile
        ).raw
        slow = repro.run(
            case30.workflow, degraded.pool, costs=case30.costs, mode="static",
            perf_profile=degraded.profile
        ).raw
        assert slow.makespan > fast.makespan

    def test_degradation_triggers_adaptive_replanning(self, case30):
        run = materialize(
            DegradationScenario(at=150.0, fraction=0.5, factor=4.0, recover_at=None),
            initial_size=6,
            seed=1,
        )
        adaptive = repro.run(
            case30.workflow, run.pool, costs=case30.costs, mode="adaptive", perf_profile=run.profile
        ).raw
        assert adaptive.evaluated_events >= 1
        assert any(d.event == "perf-change" for d in adaptive.decisions)


class TestConfigScenarioWiring:
    def test_config_scenario_fields_flow_into_a_runnable_case(self):
        from repro.experiments.config import RandomExperimentConfig
        from repro.experiments.runner import run_case

        config = RandomExperimentConfig(
            v=12,
            resources=4,
            seed=5,
            scenario="churn",
            scenario_params=(("interval", 100.0),),
        )
        case = config.to_experiment_case()
        assert case.scenario.name == "churn"
        assert case.scenario.interval == 100.0
        assert config.as_params()["scenario"] == "churn"
        result = run_case(case, strategies=("HEFT", "AHEFT"))
        assert result.params["scenario"] == "churn"
        assert result.makespans["AHEFT"] > 0

    def test_sweep_registry_names_flow_through_config_layer(self):
        from repro.experiments.config import RandomExperimentConfig
        from repro.experiments.sweep import sweep_scenarios

        points = sweep_scenarios(
            ["departures"],
            base_config=RandomExperimentConfig(v=12, resources=4),
            instances=1,
            strategies=("HEFT", "AHEFT"),
            seed=1,
        )
        assert points[0].results[0].params["scenario"] == "departures"

    def test_scenario_case_params_report_scenario_not_stale_model(self):
        from repro.experiments.config import RandomExperimentConfig

        config = RandomExperimentConfig(
            v=12, resources=4, scenario="departures",
            scenario_params=(("interval", 250.0),),
        )
        params = config.to_experiment_case().params()
        assert params["scenario"] == "departures"
        assert params["scenario_params"]["interval"] == 250.0
        # the inactive (R, Δ, δ) join settings are not reported
        assert "interval" not in params and "fraction" not in params
        assert params["resources"] == 4
