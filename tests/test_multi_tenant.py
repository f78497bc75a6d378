"""Tests for the multi-workflow subsystem: workload streams, shared-grid
booking (the ``busy`` scheduler parameter), the multi-tenant planner's
policies, the shared-grid executor, and the multi-tenancy metrics."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core.multi_tenant import POLICIES, ActiveWorkflow, MultiTenantPlanner
from repro.experiments.metrics import (
    exceedance_rate,
    jain_fairness_index,
    percentile,
)
from repro.experiments.multi_tenant import (
    MultiTenantConfig,
    multi_tenant_cell,
    run_multi_tenant_case,
)
from repro.experiments.reporting import render_multi_tenant_matrix
from repro.experiments.sweep import sweep_matrix
from repro.resources.pool import ResourcePool
from repro.resources.resource import Resource
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import Assignment, Schedule
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.validation import check_no_overlap
from repro.simulation.shared_grid import SharedGridExecutor
from repro.utils.rng import spawn_rng
from repro.workload.streams import (
    TenantSpec,
    WorkflowArrival,
    WorkloadStream,
    default_tenants,
    poisson_arrival_times,
)


# ----------------------------------------------------------------------
# workload streams
# ----------------------------------------------------------------------
class TestPoissonArrivals:
    def test_deterministic_from_rng(self):
        a = poisson_arrival_times(
            0.01, horizon=1000.0, max_arrivals=50, rng=spawn_rng(1, "x")
        )
        b = poisson_arrival_times(
            0.01, horizon=1000.0, max_arrivals=50, rng=spawn_rng(1, "x")
        )
        assert a == b and a

    def test_zero_rate_is_empty(self):
        assert (
            poisson_arrival_times(
                0.0, horizon=100.0, max_arrivals=5, rng=spawn_rng(0, "y")
            )
            == []
        )

    def test_horizon_and_cap_bound_the_stream(self):
        times = poisson_arrival_times(
            10.0, horizon=50.0, max_arrivals=7, rng=spawn_rng(2, "z")
        )
        assert len(times) <= 7
        assert all(0 < t <= 50.0 for t in times)
        assert times == sorted(times)


class TestTenantSpec:
    def test_rejects_unknown_workload_kind(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            TenantSpec(name="t1", mix=(("fractal", 1.0),))

    def test_rejects_unsorted_trace(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TenantSpec(name="t1", trace=(5.0, 1.0))

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            TenantSpec(name="t1", weight=0.0)

    def test_trace_replay_overrides_poisson(self):
        spec = TenantSpec(name="t1", arrival_rate=99.0, trace=(10.0, 20.0, 9000.0))
        assert spec.arrival_times(seed=0, horizon=8000.0) == [10.0, 20.0]

    def test_single_kind_mix_always_draws_it(self):
        spec = TenantSpec(name="t1", mix=(("wien2k", 1.0),))
        assert {spec.draw_kind(i, seed=4) for i in range(6)} == {"wien2k"}

    def test_case_generation_is_deterministic(self):
        spec = TenantSpec(name="t1", v=12)
        a = spec.build_case("random", 0, seed=7)
        b = spec.build_case("random", 0, seed=7)
        assert a.workflow.num_jobs == b.workflow.num_jobs == 12
        assert a.costs.computation_cost("n1", "r1") == b.costs.computation_cost(
            "n1", "r1"
        )


class TestWorkloadStream:
    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorkloadStream([TenantSpec(name="t1"), TenantSpec(name="t1")])

    def test_arrivals_sorted_with_global_seq(self):
        stream = WorkloadStream(default_tenants(3, arrival_rate=0.004), seed=1)
        arrivals = stream.arrivals()
        assert [a.seq for a in arrivals] == list(range(len(arrivals)))
        assert [a.time for a in arrivals] == sorted(a.time for a in arrivals)

    def test_tenant_stream_independent_of_other_tenants(self):
        """Adding a tenant never reshuffles an existing tenant's arrivals."""
        small = WorkloadStream(default_tenants(1), seed=3).arrivals()
        large = WorkloadStream(default_tenants(3), seed=3).arrivals()
        t1_small = [(a.time, a.kind) for a in small if a.tenant == "t1"]
        t1_large = [(a.time, a.kind) for a in large if a.tenant == "t1"]
        assert t1_small == t1_large


# ----------------------------------------------------------------------
# the busy scheduler parameter (shared-grid booking seam)
# ----------------------------------------------------------------------
class TestBusyIntervals:
    def test_heft_plans_around_busy_blocks(self, make_case):
        case = make_case(v=16, seed=2)
        resources = ["r1", "r2"]
        busy = {rid: [(0.0, 400.0)] for rid in resources}
        schedule = HEFTScheduler().schedule(case.workflow, case.costs, resources, busy=busy)
        assert min(a.start for a in schedule) >= 400.0 - 1e-9
        assert check_no_overlap(schedule) == []

    def test_empty_busy_is_identical_to_none(self, make_case):
        case = make_case(v=20, seed=5)
        resources = ["r1", "r2", "r3"]
        a = HEFTScheduler().schedule(case.workflow, case.costs, resources)
        b = HEFTScheduler().schedule(case.workflow, case.costs, resources, busy={})
        assert a.to_dict() == b.to_dict()

    def test_overlapping_busy_spans_are_merged_not_rejected(self, make_case):
        case = make_case(v=10, seed=1)
        busy = {"r1": [(0.0, 100.0), (50.0, 150.0)], "r2": [(10.0, 10.0)]}
        schedule = HEFTScheduler().schedule(case.workflow, case.costs, ["r1", "r2"], busy=busy)
        for assignment in schedule:
            if assignment.resource_id == "r1":
                assert assignment.start >= 150.0 - 1e-9

    def test_aheft_reschedule_respects_busy(self, make_case):
        case = make_case(v=16, seed=8)
        resources = ["r1", "r2"]
        previous = HEFTScheduler().schedule(case.workflow, case.costs, resources)
        clock = previous.makespan() * 0.4
        horizon = previous.makespan() * 2.0
        busy = {rid: [(clock, horizon)] for rid in resources}
        candidate = AHEFTScheduler().reschedule(
            case.workflow,
            case.costs,
            resources,
            clock=clock,
            previous_schedule=previous,
            busy=busy,
        )
        for assignment in candidate:
            if assignment.start >= clock - 1e-9 and assignment.finish > assignment.start:
                # every newly placed job had to wait for the foreign block
                assert assignment.start >= horizon - 1e-9 or assignment.finish <= clock + 1e-9


# ----------------------------------------------------------------------
# planner policies
# ----------------------------------------------------------------------
def _synthetic(key, tenant, seq, spans, dedicated=100.0):
    schedule = Schedule(name=key)
    for index, (rid, start, finish) in enumerate(spans):
        schedule.add(Assignment(f"{key}-j{index}", rid, start, finish))
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


class TestPlannerPolicies:
    def _pool(self, n=2):
        return ResourcePool([Resource(f"r{i + 1}") for i in range(n)])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            MultiTenantPlanner(self._pool(), policy="round_robin")

    def test_fifo_orders_by_submission(self):
        planner = MultiTenantPlanner(self._pool(), policy="fifo")
        early = _synthetic("a/0", "a", 0, [("r1", 0.0, 50.0)])
        late = _synthetic("b/0", "b", 1, [("r2", 0.0, 500.0)])
        assert planner.replan_order([late, early], clock=10.0) == [early, late]

    def test_fair_share_prefers_least_served_tenant(self):
        planner = MultiTenantPlanner(self._pool(), policy="fair_share")
        planner._active["hog/0"] = _synthetic("hog/0", "hog", 0, [("r1", 0.0, 100.0)])
        planner._active["new/0"] = _synthetic("new/0", "new", 1, [("r2", 90.0, 120.0)])
        order = planner.replan_order(list(planner._active.values()), clock=100.0)
        # hog consumed 100 units, new only 10: new replans (books) first
        assert [wf.key for wf in order] == ["new/0", "hog/0"]

    def test_fair_share_weights_scale_entitlement(self):
        planner = MultiTenantPlanner(
            self._pool(), policy="fair_share", tenant_weights={"hog": 20.0}
        )
        planner._active["hog/0"] = _synthetic("hog/0", "hog", 0, [("r1", 0.0, 100.0)])
        planner._active["new/0"] = _synthetic("new/0", "new", 1, [("r2", 90.0, 120.0)])
        order = planner.replan_order(list(planner._active.values()), clock=100.0)
        # weight 20 divides hog's consumption to 5 < new's 10
        assert [wf.key for wf in order] == ["hog/0", "new/0"]

    def test_rank_priority_puts_longest_remaining_first(self):
        planner = MultiTenantPlanner(self._pool(), policy="rank_priority")
        short = _synthetic("s/0", "s", 0, [("r1", 0.0, 50.0)])
        long = _synthetic("l/0", "l", 1, [("r2", 0.0, 900.0)])
        assert planner.replan_order([short, long], clock=10.0) == [long, short]

    def test_busy_view_excludes_self_and_finished_work(self):
        planner = MultiTenantPlanner(self._pool(), policy="fifo")
        planner._enter(_synthetic("a/0", "a", 0, [("r1", 0.0, 50.0)]), 0.0)
        planner._enter(
            _synthetic("b/0", "b", 1, [("r1", 60.0, 90.0), ("r2", 0.0, 10.0)]), 0.0
        )
        view = planner.busy_view("a/0", clock=20.0)
        assert view == {"r1": [(60.0, 90.0)]}  # own spans and finished work pruned


# ----------------------------------------------------------------------
# shared-grid executor semantics
# ----------------------------------------------------------------------
class TestSharedGridExecutor:
    def test_second_workflow_waits_for_residual_capacity(self, make_case):
        pool = ResourcePool([Resource("r1")])  # one resource: pure queueing
        first = make_case(v=8, seed=1)
        second = make_case(v=8, seed=2)
        arrivals = [
            WorkflowArrival("t1", 0, 0.0, "random", first, seq=0),
            WorkflowArrival("t2", 0, 0.0, "random", second, seq=1),
        ]
        result = SharedGridExecutor(arrivals, pool).run()
        result.shared_timelines()  # no overlap on the single resource
        a, b = result.outcomes
        # with one resource the joint span is at least the sum of work
        assert result.makespan() >= a.dedicated_span + b.dedicated_span - 1e-6
        assert b.stretch > 1.0

    def test_wasted_work_attributed_to_the_right_tenant(self, make_case, build_scenario):
        run = build_scenario("departures", initial_size=5, seed=2)
        case = make_case(v=20, seed=6, omega_dag=300.0)
        arrivals = [WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)]
        result = SharedGridExecutor(
            arrivals, run.pool, perf_profile=run.profile
        ).run()
        outcome = result.outcomes[0]
        assert result.total_wasted_work() == outcome.wasted_work
        assert result.total_killed_jobs() == outcome.killed_jobs

    def test_policies_produce_valid_but_possibly_different_interleaves(
        self, build_scenario
    ):
        specs = default_tenants(2, arrival_rate=0.003, max_arrivals=2, v=10)
        stream = WorkloadStream(specs, seed=4, horizon=4000.0)
        spans = {}
        for policy in POLICIES:
            run = build_scenario("churn", initial_size=5, seed=4)
            result = SharedGridExecutor(
                stream.arrivals(),
                run.pool,
                perf_profile=run.profile,
                policy=policy,
            ).run()
            result.shared_timelines()
            assert result.policy == policy
            spans[policy] = result.makespan()
        assert len(spans) == len(POLICIES)

    def test_duplicate_admission_rejected(self, make_case):
        pool = ResourcePool([Resource("r1")])
        case = make_case(v=8, seed=1)
        arrival = WorkflowArrival("t1", 0, 0.0, "random", case, seq=0)
        with pytest.raises(ValueError, match="already admitted"):
            SharedGridExecutor([arrival, arrival], pool).run()


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([], 95.0) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 120.0)

    def test_percentile_boundaries_exact(self):
        values = [3.0, 1.0, 4.0, 1.5]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        # a generator is consumed once, never iterated twice
        assert percentile(iter(values), 100) == 4.0
        assert percentile([], 0) == 0.0
        assert percentile([], 100) == 0.0

    def test_percentile_invalid_q_raises_even_when_empty(self):
        # regression: the empty-input shortcut used to run before the q
        # validation, so percentile([], 250) silently returned 0.0
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([], 250.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([], -1.0)

    def test_exceedance_rate_contract(self):
        assert exceedance_rate([], 2.0) == 0.0
        # strictly above the limit: values equal to the limit do not count
        assert exceedance_rate([1.0, 2.0, 3.0, 4.0], 2.0) == pytest.approx(0.5)
        assert exceedance_rate(iter([1.0, 3.0]), 2.0) == pytest.approx(0.5)

    def test_jain_index_bounds(self):
        assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_fairness_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            jain_fairness_index([-1.0])


# ----------------------------------------------------------------------
# experiments layer
# ----------------------------------------------------------------------
class TestMultiTenantExperiments:
    def test_case_result_ledger_shape(self):
        config = MultiTenantConfig(
            tenants=2,
            arrival_rate=0.003,
            resources=5,
            scenario="departures",
            v=12,
            parallelism=6,
            max_arrivals=2,
            seed=1,
        )
        outcome = run_multi_tenant_case(config)
        payload = outcome.as_dict()
        for key in (
            "mean_flow_time",
            "p95_flow_time",
            "mean_stretch",
            "throughput",
            "fairness",
            "wasted_work",
            "per_tenant",
        ):
            assert key in payload
        assert set(payload["per_tenant"]) == set(outcome.metrics.per_tenant)
        assert outcome.metrics.workflows > 0
        assert 0.0 < outcome.metrics.fairness <= 1.0 + 1e-9

    def test_sweep_matrix_shape_and_determinism(self):
        base = MultiTenantConfig(
            resources=5, v=10, parallelism=6, max_arrivals=2, seed=2
        )
        axes = {
            "scenario": ["static", "departures"],
            "tenants": [1, 2],
            "arrival_rate": [0.003],
            "policy": ["fifo"],
        }
        points_a = sweep_matrix(multi_tenant_cell, base, axes)
        points_b = sweep_matrix(multi_tenant_cell, base, axes)
        assert len(points_a) == 4
        assert [(p.scenario, p.tenants) for p in points_a] == [
            ("static", 1), ("static", 2), ("departures", 1), ("departures", 2)
        ]
        assert [asdict(p) for p in points_a] == [asdict(p) for p in points_b]
        table = render_multi_tenant_matrix(points_a, title="matrix")
        assert "fairness" in table and "departures" in table

    def test_same_seed_same_workload_across_scenarios(self):
        """Scenario rows differ by dynamics, not workload sampling."""
        base = MultiTenantConfig(
            resources=5, v=10, max_arrivals=2, seed=3, tenants=2, arrival_rate=0.003
        )
        points = sweep_matrix(
            multi_tenant_cell, base, {"scenario": ["static", "churn"]}
        )
        static_point, churn_point = points
        assert static_point.workflows == churn_point.workflows
