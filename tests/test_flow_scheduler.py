"""The min-cost max-flow scheduler: solver, graph, cost models, strategy."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scheduling.flow.models as flow_models
import repro.scheduling.flow.scheduler as flow_scheduler
from repro import registry
from repro.scheduling.base import ResourceTimeline
from repro.scheduling.flow import (
    BUSY_PU_OFFSET,
    COST_SCALE,
    DEFERRAL_COST,
    CreditCostModel,
    FlowNetwork,
    LocalityCostModel,
    MinCostFlowScheduler,
    OctopusCostModel,
    solve_assignment,
)
from repro.scheduling.frame import PartialScheduleFrame
from repro.scheduling.validation import validate_schedule
from repro.workflow.costs import TabularCostModel, UniformCostModel
from repro.workflow.dag import Workflow

RESOURCES = ["r1", "r2", "r3"]


class TestFlowSolver:
    def test_min_cost_route_beats_the_greedy_one(self):
        # two disjoint s->t routes: cheap (cost 1) and dear (cost 10)
        network = FlowNetwork(4)
        cheap = network.add_arc(0, 2, 1, 1)
        dear = network.add_arc(0, 3, 1, 10)
        network.add_arc(2, 1, 1, 0)
        network.add_arc(3, 1, 1, 0)
        flow, cost = network.min_cost_max_flow(0, 1)
        assert (flow, cost) == (2, 11)
        assert network.flow_on(cheap) == 1 and network.flow_on(dear) == 1

    def test_augmentation_reroutes_through_residual_arcs(self):
        """The classic 2x2 assignment where greedy is globally wrong.

        Greedy puts t1 on its cheap r1 (1) and forces t2 to r2 (5): total
        6.  Min-cost flow must push t2 back over the residual arc and pay
        3 instead — the whole point of the flow formulation.
        """
        placed = solve_assignment(
            ["t1", "t2"],
            ["r1", "r2"],
            lambda t, r: {("t1", "r1"): 1, ("t1", "r2"): 2,
                          ("t2", "r1"): 1, ("t2", "r2"): 5}[(t, r)],
            lambda t: 1000.0,
        )
        assert placed == {"t1": "r2", "t2": "r1"}

    def test_argument_validation(self):
        network = FlowNetwork(2)
        with pytest.raises(ValueError, match="out of range"):
            network.add_arc(0, 7, 1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            network.add_arc(0, 1, -1, 0)
        with pytest.raises(ValueError, match="differ"):
            network.min_cost_max_flow(0, 0)
        with pytest.raises(ValueError, match="positive"):
            FlowNetwork(0)


class TestAssignmentGraph:
    def test_unit_capacity_spreads_a_wave(self):
        placed = solve_assignment(
            ["t1", "t2", "t3"],
            ["r1", "r2"],
            lambda t, r: {"r1": 1.0, "r2": 2.0}[r],
            lambda t: 100.0,
        )
        # two resources, one slot each: two placed on distinct resources
        assert len(placed) == 2
        assert sorted(placed.values()) == ["r1", "r2"]

    def test_cheap_deferral_empties_the_wave(self):
        placed = solve_assignment(
            ["t1", "t2"], ["r1"], lambda t, r: 50.0, lambda t: 1.0
        )
        assert placed == {}

    def test_empty_wave_and_missing_resources(self):
        assert solve_assignment([], ["r1"], lambda t, r: 0, lambda t: 0) == {}
        with pytest.raises(ValueError, match="resources"):
            solve_assignment(["t1"], [], lambda t, r: 0, lambda t: 0)

    def test_non_finite_costs_are_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve_assignment(
                ["t1"], ["r1"], lambda t, r: float("nan"), lambda t: 0.0
            )

    def test_identical_inputs_solve_identically(self):
        def run():
            return solve_assignment(
                ["a", "b", "c"],
                RESOURCES,
                lambda t, r: (hash((t, r)) % 97) / 7.0,
                lambda t: 500.0,
            )

        assert run() == run()


def _scaled(cost):
    """A float arc cost in the solver's fixed-point units."""
    return max(0, int(round(cost * COST_SCALE)))


def _both_graphs(tasks, resources, prices, deferral):
    """One wave solved on the full ``T × R`` graph and the class graph."""

    def cost(task, rid):
        return prices[rid]

    def defer(task):
        return deferral

    full = solve_assignment(tasks, resources, cost, defer)
    classes = solve_assignment(tasks, resources, cost, defer, task_independent=True)
    return full, classes


@st.composite
def tied_waves(draw):
    """Small pools, few price levels (heavy ties), waves up to 3× the pool
    and deferral prices often equal to a resource's price."""
    pool = draw(st.integers(1, 8))
    resources = [f"r{i}" for i in range(pool)]
    levels = draw(st.lists(st.integers(0, 3), min_size=pool, max_size=pool))
    prices = {rid: level * 2.5 for rid, level in zip(resources, levels)}
    deferral = draw(st.sampled_from(sorted(set(prices.values()))) | st.floats(0.0, 10.0))
    tasks = [f"t{i}" for i in range(draw(st.integers(1, 3 * pool)))]
    return tasks, resources, prices, deferral


@st.composite
def credit_floor_waves(draw):
    """``credit`` at its floor weight 0.5 on pools of 100+ resources.

    Most resources hold 16 bookings and price above the 3200 deferral; a
    few hold 14 or 15.  Core 99 at load 15 prices exactly 3200, and core
    ``100 + k`` at load 14 collides with core ``k`` at load 15, because
    core ids pass ``BUSY_PU_OFFSET``.
    """
    weight = 0.5
    pool = draw(st.integers(100, 120))
    loads = [16] * pool
    lighter = draw(
        st.sets(st.integers(95, min(pool - 1, 105)) | st.integers(0, pool - 1), max_size=8)
    )
    for core in lighter:
        loads[core] = draw(st.sampled_from([14, 15]))
    resources = [f"r{i}" for i in range(pool)]
    prices = {
        rid: (1.0 + core + BUSY_PU_OFFSET * load) / weight
        for core, (rid, load) in enumerate(zip(resources, loads))
    }
    tasks = [f"t{i}" for i in range(draw(st.integers(1, 12)))]
    return tasks, resources, prices, DEFERRAL_COST * weight


class TestEquivalenceClassGraph:
    """The class graph must reproduce the full graph's assignment."""

    @settings(max_examples=300, deadline=None)
    @given(tied_waves())
    def test_matches_the_full_graph_under_ties(self, wave):
        full, classes = _both_graphs(*wave)
        assert classes == full

    @settings(max_examples=40, deadline=None)
    @given(credit_floor_waves())
    def test_matches_the_full_graph_at_the_credit_floor(self, wave):
        full, classes = _both_graphs(*wave)
        assert classes == full

    def test_a_resource_priced_at_the_deferral_cost_wins(self):
        prices = {"r1": 9.0, "r2": 5.0, "r3": 5.0}
        full, classes = _both_graphs(["t1", "t2", "t3"], list(prices), prices, 5.0)
        assert classes == full == {"t1": "r2", "t2": "r3"}

    def test_credit_floor_collisions_and_boundary_on_a_large_pool(self):
        # weight 0.5: core 0 at load 15 and core 100 at load 14 both price
        # 3002 (pool order breaks the tie); core 99 at load 15 prices
        # exactly the 3200 deferral and still wins a slot
        weight = 0.5
        loads = {0: 15, 99: 15, 100: 14}
        resources = [f"r{core}" for core in range(101)]
        prices = {
            f"r{core}": (1.0 + core + BUSY_PU_OFFSET * loads.get(core, 16)) / weight
            for core in range(101)
        }
        assert prices["r0"] == prices["r100"] == 3002.0
        assert prices["r99"] == DEFERRAL_COST * weight == 3200.0
        tasks = ["a", "b", "c", "d"]
        full, classes = _both_graphs(tasks, resources, prices, DEFERRAL_COST * weight)
        assert classes == full == {"a": "r0", "b": "r100", "c": "r99"}

    def test_only_the_first_pool_size_tasks_can_be_placed(self):
        prices = {"r1": 2.0, "r2": 1.0}
        full, classes = _both_graphs(["a", "b", "c", "d"], list(prices), prices, 50.0)
        assert classes == full == {"a": "r2", "b": "r1"}

    def test_matches_the_sorted_closed_form(self):
        """The class-graph solve is a sort: keep the resources priced at or
        below the deferral, order them by (scaled price, pool index) and
        pair them with the first ``min(T, R)`` ready tasks in ready order.

        Holds on seeded waves with few price levels, many of them equal
        to the deferral, so a solve of task-independent waves could drop
        the SPFA for this sort without moving a placement.
        """
        rng = random.Random(20_000)
        for _ in range(10_000):
            pool = rng.randint(1, 8)
            resources = [f"r{i}" for i in range(pool)]
            step = rng.choice([1.0, 2.5, 100.0, 1.0 / 3.0])
            prices = {rid: rng.randint(0, 3) * step for rid in resources}
            if rng.random() < 0.5:
                deferral = rng.choice(list(prices.values()))
            else:
                deferral = rng.randint(0, 4) * step
            tasks = [f"t{i}" for i in range(rng.randint(1, 3 * pool))]
            kept = sorted(
                (_scaled(prices[rid]), r)
                for r, rid in enumerate(resources)
                if _scaled(prices[rid]) <= _scaled(deferral)
            )
            closed_form = {
                task: resources[r] for task, (_, r) in zip(tasks[:pool], kept)
            }
            classes = solve_assignment(
                tasks,
                resources,
                lambda t, rid, p=prices: p[rid],
                lambda t, d=deferral: d,
                task_independent=True,
            )
            assert classes == closed_form, (tasks, prices, deferral)

    def test_each_resource_is_priced_once(self):
        priced = []

        def cost(task, rid):
            priced.append(rid)
            return 1.0

        solve_assignment(
            ["a", "b", "c"], RESOURCES, cost, lambda t: 9.0, task_independent=True
        )
        assert priced == RESOURCES


@pytest.fixture
def fork_case():
    """One source feeding three parallel jobs, uniform costs."""
    wf = Workflow("fork")
    wf.add_job("src")
    for job in ["x", "y", "z"]:
        wf.add_job(job)
        wf.add_edge("src", job, data=2.0)
    return wf, UniformCostModel(wf, computation=4.0)


class TestCostModels:
    def test_octopus_prices_busy_resources_up(self, fork_case):
        workflow, costs = fork_case
        frame = PartialScheduleFrame(workflow, costs, RESOURCES)
        model = OctopusCostModel(frame)
        assert model.assignment_cost("src", "r1") == 0
        assert model.assignment_cost("src", "r2") == 1  # core-id tie-break
        frame.place("src", "r1", 0.0, 4.0)
        assert model.assignment_cost("x", "r1") == BUSY_PU_OFFSET
        assert model.assignment_cost("x", "r2") == 1

    def test_octopus_ignores_bookings_finished_before_the_clock(self, fork_case):
        workflow, costs = fork_case
        frame = PartialScheduleFrame(workflow, costs, RESOURCES)
        frame.place("src", "r1", 0.0, 4.0)
        late = PartialScheduleFrame(
            workflow,
            costs,
            RESOURCES,
            clock=10.0,
            previous_schedule=frame.schedule,
        )
        assert OctopusCostModel(late).assignment_cost("x", "r1") == 0

    def test_locality_charges_for_remote_inputs(self, fork_case):
        workflow, costs = fork_case
        frame = PartialScheduleFrame(workflow, costs, RESOURCES)
        frame.place("src", "r2", 0.0, 4.0)
        model = LocalityCostModel(frame)
        local = model.assignment_cost("x", "r2")
        remote = model.assignment_cost("x", "r1")
        assert remote == pytest.approx(2.0, abs=1e-5)  # the edge's transfer
        assert local < remote

    def test_locality_refuses_to_price_unready_tasks(self, fork_case):
        workflow, costs = fork_case
        frame = PartialScheduleFrame(workflow, costs, RESOURCES)
        with pytest.raises(RuntimeError, match="no placement yet"):
            LocalityCostModel(frame).assignment_cost("x", "r1")

    def test_credit_scales_bids_both_ways(self, fork_case):
        workflow, costs = fork_case
        frame = PartialScheduleFrame(workflow, costs, RESOURCES)
        trusted = CreditCostModel(frame, credit_weight=1.0)
        eroded = CreditCostModel(frame, credit_weight=0.5)
        assert eroded.assignment_cost("src", "r1") == pytest.approx(
            2 * trusted.assignment_cost("src", "r1")
        )
        assert eroded.deferral_cost("src") == pytest.approx(DEFERRAL_COST / 2)

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
    def test_credit_weight_must_be_positive_and_finite(self, weight):
        with pytest.raises(ValueError, match="credit_weight"):
            MinCostFlowScheduler(cost_model="credit", credit_weight=weight)

    def test_unknown_cost_model_rejected(self):
        with pytest.raises(ValueError, match="cost model"):
            MinCostFlowScheduler(cost_model="nope")


class TestMinCostFlowScheduler:
    @pytest.mark.parametrize("cost_model", ["octopus", "locality", "credit"])
    def test_static_schedule_is_feasible(self, make_case, cost_model):
        case = make_case(v=24, seed=3)
        scheduler = MinCostFlowScheduler(cost_model=cost_model)
        schedule = scheduler.schedule(case.workflow, case.costs, RESOURCES)
        validate_schedule(case.workflow, case.costs, schedule)
        assert len(schedule) == len(case.workflow.jobs)

    def test_waves_spread_ready_tasks_across_resources(self, fork_case):
        workflow, costs = fork_case
        schedule = MinCostFlowScheduler().schedule(workflow, costs, RESOURCES)
        wave = {schedule.resource_of(j) for j in ("x", "y", "z")}
        assert wave == set(RESOURCES)

    def test_locality_model_keeps_heavy_chains_local(self):
        wf = Workflow("chain")
        for job in ("a", "b"):
            wf.add_job(job)
        wf.add_edge("a", "b", data=1000.0)
        costs = UniformCostModel(wf, computation=1.0)
        schedule = MinCostFlowScheduler(cost_model="locality").schedule(
            wf, costs, RESOURCES
        )
        assert schedule.resource_of("b") == schedule.resource_of("a")

    def test_reschedule_pins_executed_history(self, make_case):
        case = make_case(v=18, seed=5)
        scheduler = MinCostFlowScheduler()
        initial = scheduler.schedule(case.workflow, case.costs, RESOURCES)
        clock = initial.makespan() * 0.5
        replanned = scheduler.reschedule(
            case.workflow,
            case.costs,
            RESOURCES,
            clock=clock,
            previous_schedule=initial,
        )
        validate_schedule(case.workflow, case.costs, replanned)
        for job in case.workflow.jobs:
            before = initial.get(job)
            if before is not None and before.finish <= clock:
                assert replanned.get(job) == before

    def test_deferral_dominated_wave_still_terminates(self, fork_case):
        """If every placement arc loses to deferral the loop must not spin."""
        workflow, costs = fork_case
        # a saturated pool: the octopus busy offsets exceed the (tiny)
        # deferral price, so the first solves defer everything
        import repro.scheduling.flow.scheduler as flow_scheduler

        class StubbornModel(OctopusCostModel):
            def deferral_cost(self, job):
                return 0.0  # always cheaper than any placement

        original = flow_scheduler.FLOW_COST_MODELS
        flow_scheduler.FLOW_COST_MODELS = {**original, "stubborn": StubbornModel}
        try:
            schedule = MinCostFlowScheduler(cost_model="stubborn").schedule(
                workflow, costs, RESOURCES
            )
        finally:
            flow_scheduler.FLOW_COST_MODELS = original
        validate_schedule(workflow, costs, schedule)
        assert len(schedule) == len(workflow.jobs)

    def test_registry_entry_and_config_contract(self):
        assert registry.describe("scheduler", "mincost_flow")["kind"] == "adaptive"
        scheduler = registry.make("scheduler", "mincost_flow", cost_model="credit")
        assert scheduler.cost_model == "credit"
        assert dataclasses.is_dataclass(scheduler)
        with pytest.raises(dataclasses.FrozenInstanceError):
            scheduler.cost_model = "octopus"
        with pytest.raises(ValueError, match="positive"):
            MinCostFlowScheduler(credit_weight=0.0)

    def test_bind_tenant_context_returns_a_reweighted_copy(self):
        scheduler = MinCostFlowScheduler(cost_model="credit")
        bound = scheduler.bind_tenant_context(credit_weight=0.625)
        assert bound.credit_weight == 0.625
        assert scheduler.credit_weight == 1.0
        assert bound.cost_model == "credit"


#: (cost model, credit weight) pairs whose prices ignore the task
TASK_INDEPENDENT_BIDS = [
    ("octopus", 1.0),
    ("credit", 0.5),
    ("credit", 0.75),
    ("credit", 1.0),
]


def _record_graph_paths(monkeypatch):
    """Record, per wave, whether the scheduler asked for the class graph."""
    paths = []
    solve = flow_scheduler.solve_assignment

    def recording_solve(*args, task_independent=False):
        paths.append(task_independent)
        return solve(*args, task_independent=task_independent)

    monkeypatch.setattr(flow_scheduler, "solve_assignment", recording_solve)
    return paths


class TestClassGraphSchedules:
    """Whole schedules agree between the class graph and the full graph.

    The full graph is the ``locality`` path; switching the capability off
    sends ``octopus``/``credit`` waves through it as the oracle.
    """

    POOL = ["r1", "r2", "r3", "r4"]

    def _both_paths(self, monkeypatch, cost_model, credit_weight, **kwargs):
        scheduler = MinCostFlowScheduler(cost_model=cost_model, credit_weight=credit_weight)
        paths = _record_graph_paths(monkeypatch)
        classes = scheduler.reschedule(**kwargs)
        assert paths and all(paths)
        paths.clear()
        with monkeypatch.context() as patch:
            patch.setattr(OctopusCostModel, "task_independent", False)
            full = scheduler.reschedule(**kwargs)
        assert paths and not any(paths)
        return classes, full

    @pytest.mark.parametrize("cost_model,weight", TASK_INDEPENDENT_BIDS)
    def test_static_plan(self, make_case, monkeypatch, cost_model, weight):
        # ~30 bookings per resource: the credit floor defers late waves
        case = make_case(v=120, seed=11)
        classes, full = self._both_paths(
            monkeypatch,
            workflow=case.workflow,
            costs=case.costs,
            resources=self.POOL,
            clock=0.0,
            previous_schedule=None,
            cost_model=cost_model,
            credit_weight=weight,
        )
        assert list(classes) == list(full)
        assert len(classes) == len(case.workflow.jobs)

    @pytest.mark.parametrize("cost_model,weight", TASK_INDEPENDENT_BIDS)
    def test_mid_flight_reschedule_with_foreign_busy_spans(
        self, make_case, monkeypatch, cost_model, weight
    ):
        case = make_case(v=80, seed=12)
        initial = MinCostFlowScheduler(cost_model=cost_model, credit_weight=weight).schedule(
            case.workflow, case.costs, self.POOL
        )
        clock = initial.makespan() * 0.4
        busy = {
            "r1": [(clock + 1.0, clock + 30.0), (clock + 45.0, clock + 60.0)],
            "r3": [(clock - 5.0, clock + 12.0)],
        }
        classes, full = self._both_paths(
            monkeypatch,
            workflow=case.workflow,
            costs=case.costs,
            resources=self.POOL,
            clock=clock,
            previous_schedule=initial,
            busy=busy,
            cost_model=cost_model,
            credit_weight=weight,
        )
        assert list(classes) == list(full)
        validate_schedule(case.workflow, case.costs, classes)
        pinned = [j for j in case.workflow.jobs if initial.get(j).finish <= clock]
        assert pinned, "the reschedule pins no history"
        assert all(classes.get(job) == initial.get(job) for job in pinned)


    def test_locality_keeps_the_full_graph(self, make_case, monkeypatch):
        case = make_case(v=30, seed=13)
        paths = _record_graph_paths(monkeypatch)
        MinCostFlowScheduler(cost_model="locality").schedule(
            case.workflow, case.costs, self.POOL
        )
        assert paths and not any(paths)


class TestPricingCallCount:
    """A task-independent wave prices each resource once and counts its
    running tasks without copying the interval list."""

    @pytest.mark.parametrize("cost_model", ["octopus", "credit"])
    def test_waves_price_resources_not_arcs(self, make_case, monkeypatch, cost_model):
        case = make_case(v=60, seed=4)
        resources = [f"r{i}" for i in range(1, 7)]
        waves = []
        priced = []
        copies = []
        solve = flow_scheduler.solve_assignment
        running_tasks = flow_models._running_tasks
        intervals = ResourceTimeline.intervals

        def recording_solve(tasks, pool, *args, **kwargs):
            waves.append((len(tasks), len(pool)))
            return solve(tasks, pool, *args, **kwargs)

        def counting_running_tasks(frame, rid):
            priced.append(rid)
            return running_tasks(frame, rid)

        def counting_intervals(self):
            copies.append(self.resource_id)
            return intervals(self)

        monkeypatch.setattr(flow_scheduler, "solve_assignment", recording_solve)
        monkeypatch.setattr(flow_models, "_running_tasks", counting_running_tasks)
        monkeypatch.setattr(ResourceTimeline, "intervals", counting_intervals)
        schedule = MinCostFlowScheduler(cost_model=cost_model).schedule(
            case.workflow, case.costs, resources
        )
        assert len(schedule) == len(case.workflow.jobs)
        assert any(tasks > 1 for tasks, _ in waves), "no multi-task wave to guard"
        assert len(priced) == sum(pool for _, pool in waves)
        assert copies == []


class TestFlowInMultiTenancy:
    def test_planner_binds_the_tenant_credit_weight(self, make_pool, make_case):
        from repro.core.credit import CreditLedger
        from repro.core.multi_tenant import MultiTenantPlanner
        from repro.workload.streams import WorkflowArrival

        ledger = CreditLedger()
        for _ in range(10):
            ledger.record_completion("t1", stretch=50.0, deadline_violated=True)
        planner = MultiTenantPlanner(
            make_pool(4),
            scheduler_factory=lambda: MinCostFlowScheduler(cost_model="credit"),
            policy="credit_drf",
            credit_ledger=ledger,
        )
        arrival = WorkflowArrival("t1", 0, 0.0, "random", make_case(v=10))
        planned = planner.plan_arrival(arrival, 0.0)
        assert planned.scheduler.credit_weight == pytest.approx(
            ledger.weight("t1")
        )
        assert planned.scheduler.credit_weight < 1.0

    def test_multi_tenant_matrix_accepts_the_strategy(self):
        from repro.experiments.multi_tenant import MultiTenantConfig, multi_tenant_cell
        from repro.experiments.sweep import sweep_matrix

        base = MultiTenantConfig(
            tenants=2, arrival_rate=0.004, resources=5, v=10, parallelism=5,
            max_arrivals=2, seed=0, policy="credit_drf",
        )
        points = sweep_matrix(
            multi_tenant_cell, base, {"strategy": ["mincost_flow"]}
        )
        assert [point.strategy for point in points] == ["mincost_flow"]
        assert points[0].workflows > 0
