"""Tests for the adaptive rescheduling loop and the three strategy runners."""

import pytest

import repro
from repro import registry
from repro.core import adaptive as adaptive_module
from repro.core.adaptive import AdaptiveReschedulingLoop
from repro.generators.blast import generate_blast_case
from repro.resources.dynamics import ResourceChangeModel
from repro.resources.pool import ResourcePool
from repro.resources.resource import Resource
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.validation import validate_schedule


@pytest.fixture
def blast_case():
    return generate_blast_case(20, ccr=1.0, beta=0.5, omega_dag=100.0, seed=5)


@pytest.fixture
def dynamic_pool():
    model = ResourceChangeModel(initial_size=3, interval=150.0, fraction=0.35, max_events=20)
    return model.build_pool()


class TestRunStatic:
    def test_static_uses_only_initial_resources(self, blast_case, dynamic_pool):
        result = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="static"
        ).raw
        used = set(result.final_schedule.resources_used())
        assert used <= set(dynamic_pool.initial_resources())

    def test_static_simulated_trace_matches_plan(self, blast_case, dynamic_pool):
        result = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="static", simulate=True
        ).raw
        assert result.trace is not None
        assert result.trace.makespan() == pytest.approx(result.final_schedule.makespan())

    def test_static_no_resources_raises(self, blast_case):
        pool = ResourcePool([Resource("r1", available_from=10.0)])
        with pytest.raises(ValueError):
            repro.run(blast_case.workflow, pool, costs=blast_case.costs, mode="static")


class TestAdaptiveLoop:
    def test_initial_schedule_equals_static_heft(self, blast_case, dynamic_pool):
        static = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="static"
        ).raw
        adaptive = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="adaptive"
        ).raw
        assert adaptive.initial_makespan == pytest.approx(static.makespan)

    def test_adaptive_never_worse_than_static(self, blast_case, dynamic_pool):
        """The accept-if-better rule guarantees AHEFT <= HEFT (paper's key property)."""
        static = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="static"
        ).raw
        adaptive = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="adaptive"
        ).raw
        assert adaptive.makespan <= static.makespan + 1e-9

    def test_adaptive_improves_on_constrained_pool(self, blast_case, dynamic_pool):
        """With a tiny initial pool and frequent additions AHEFT should win outright."""
        static = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="static"
        ).raw
        adaptive = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="adaptive"
        ).raw
        assert adaptive.makespan < static.makespan
        assert adaptive.rescheduling_count >= 1

    def test_final_schedule_feasible_against_pool(self, blast_case, dynamic_pool):
        adaptive = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="adaptive"
        ).raw
        assert (
            validate_schedule(
                blast_case.workflow, blast_case.costs, adaptive.final_schedule, pool=dynamic_pool
            )
            == []
        )

    def test_decisions_recorded_for_events_before_completion(self, blast_case, dynamic_pool):
        adaptive = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="adaptive"
        ).raw
        assert adaptive.evaluated_events >= adaptive.rescheduling_count
        for decision in adaptive.decisions:
            assert decision.time < adaptive.initial_makespan
            if decision.adopted:
                assert decision.candidate_makespan < decision.previous_makespan

    def test_events_after_completion_ignored(self, blast_case):
        pool = ResourcePool([Resource("r1"), Resource("r2")])
        # one extra resource appears long after any plausible makespan
        pool.add(Resource("r3", available_from=1e9))
        adaptive = repro.run(blast_case.workflow, pool, costs=blast_case.costs, mode="adaptive").raw
        assert adaptive.evaluated_events == 0
        assert adaptive.makespan == adaptive.initial_makespan

    def test_static_pool_gives_no_decisions(self, blast_case):
        pool = ResourcePool([Resource("r1"), Resource("r2"), Resource("r3")])
        adaptive = repro.run(blast_case.workflow, pool, costs=blast_case.costs, mode="adaptive").raw
        assert adaptive.decisions == []

    def test_always_accept_mode_adopts_every_candidate(self, blast_case, dynamic_pool):
        loop = AdaptiveReschedulingLoop(AHEFTScheduler(), accept_only_if_better=False)
        result = loop.run(blast_case.workflow, blast_case.costs, dynamic_pool)
        assert all(decision.adopted for decision in result.decisions)

    def test_accept_rule_caps_regressions_from_always_accept(self, blast_case, dynamic_pool):
        guarded = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="adaptive"
        ).raw
        always = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="adaptive",
            accept_only_if_better=False
        ).raw
        assert guarded.makespan <= always.makespan + 1e-9

    def test_accurate_estimates_never_replay_the_plan(
        self, blast_case, dynamic_pool, monkeypatch
    ):
        """Without a truth model or predictor the plan is its own future.

        The loop's exact case reads the projection off the plan, so the
        truth replay is never called; a null error model goes through the
        replay — once up front and once per evaluated trigger that adopted
        a new plan (on a growing pool nothing else changes what the replay
        reads, and a replay that cannot change anything is skipped) — and
        lands on the same result.
        """
        calls = []
        replay = adaptive_module.project_actuals

        def counting_replay(*args, **kwargs):
            calls.append(None)
            return replay(*args, **kwargs)

        monkeypatch.setattr(adaptive_module, "project_actuals", counting_replay)
        accurate = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="adaptive"
        ).raw
        assert accurate.evaluated_events >= 1
        assert calls == []
        null = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="adaptive",
            error_model=registry.make("error_model", "gaussian", magnitude=0.0),
        ).raw
        assert 0 < null.rescheduling_count < null.evaluated_events
        assert len(calls) == null.rescheduling_count + 1
        assert null.makespan == accurate.makespan
        assert null.final_schedule.to_dict() == accurate.final_schedule.to_dict()

    @pytest.mark.parametrize("threshold", [-0.1, float("nan")])
    def test_replan_on_deviation_rejects_negative_and_nan(self, make_case, threshold):
        """Either value would make every deviating completion a trigger."""
        case = make_case(v=20, seed=4)
        with pytest.raises(ValueError, match="replan_on_deviation"):
            repro.run(
                case.workflow, costs=case.costs, mode="adaptive", scenario="churn",
                error_model="gaussian", resources=4, seed=2,
                replan_on_deviation=threshold,
            )

    def test_replan_on_deviation_infinity_equals_none(self, make_case):
        """``+inf`` tolerates any deviation: no monitor trigger, like ``None``."""
        case = make_case(v=20, seed=4)
        results = {
            threshold: repro.run(
                case.workflow, costs=case.costs, mode="adaptive", scenario="churn",
                error_model="gaussian", resources=4, seed=2,
                replan_on_deviation=threshold,
            ).raw
            for threshold in (None, float("inf"), 0.0)
        }
        unbounded, disabled = results[float("inf")], results[None]
        assert [d.event for d in unbounded.decisions] == [d.event for d in disabled.decisions]
        assert unbounded.makespan == disabled.makespan
        assert "deviation" not in {d.event for d in disabled.decisions}
        assert "deviation" in {d.event for d in results[0.0].decisions}


class TestRunDynamic:
    def test_dynamic_executes_everything(self, blast_case, dynamic_pool):
        result = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="dynamic"
        ).raw
        assert result.trace is not None
        assert len(result.trace.jobs()) == blast_case.workflow.num_jobs

    def test_dynamic_strategy_name(self, blast_case, dynamic_pool):
        result = repro.run(
            blast_case.workflow, dynamic_pool, costs=blast_case.costs, mode="dynamic"
        ).raw
        assert result.strategy == "MinMin"

    def test_plan_ahead_beats_dynamic_on_random_dags(self, make_case):
        """The paper's central comparison: HEFT/AHEFT beat dynamic Min-Min."""
        case = make_case(v=40, out_degree=0.3, ccr=5.0, omega_dag=100.0, seed=11)
        pool = ResourceChangeModel(initial_size=8, interval=500.0, fraction=0.2).build_pool()
        static = repro.run(case.workflow, pool, costs=case.costs, mode="static").raw
        adaptive = repro.run(case.workflow, pool, costs=case.costs, mode="adaptive").raw
        dynamic = repro.run(case.workflow, pool, costs=case.costs, mode="dynamic").raw
        assert adaptive.makespan <= static.makespan + 1e-9
        assert dynamic.makespan > adaptive.makespan


class TestSameTimeEvents:
    def test_same_time_pool_events_are_merged_not_dropped(self, small_random_case):
        """A join and a departure at one instant are one event that sees both."""
        from repro.core.adaptive import AdaptiveReschedulingLoop
        from repro.resources.pool import ResourcePool
        from repro.resources.resource import Resource

        case = small_random_case
        pool = ResourcePool(
            [Resource("r1", available_until=100.0)]
            + [Resource(f"r{i}") for i in range(2, 5)]
            + [Resource("r9", available_from=100.0)]
        )
        result = AdaptiveReschedulingLoop().run(case.workflow, case.costs, pool)
        # one decision at t=100 that saw both the join and the removal
        assert len(result.decisions) == 1
        decision = result.decisions[0]
        assert decision.time == 100.0
        assert "r9" in decision.event and "r1" in decision.event
        # the removal was honoured: nothing unfinished stays on r1
        for assignment in result.final_schedule:
            if assignment.resource_id == "r1":
                assert assignment.finish <= 100.0 + 1e-9 or assignment.start < 100.0
