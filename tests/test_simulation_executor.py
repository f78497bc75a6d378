"""Tests for the grid executors (static replay and just-in-time Min-Min)."""

import pytest

from repro.generators.sample import sample_dag_cost_model, sample_dag_pool, sample_dag_workflow
from repro.resources.pool import ResourcePool
from repro.resources.resource import Resource
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.minmin import MinMinScheduler
from repro.scheduling.validation import validate_schedule
from repro.simulation.executor import JustInTimeExecutor, StaticScheduleExecutor
from repro.workflow.costs import TabularCostModel


class TestStaticScheduleExecutor:
    def test_accurate_execution_reproduces_the_plan(self, sample_workflow, sample_costs):
        pool = ResourcePool([Resource("r1"), Resource("r2"), Resource("r3")])
        schedule = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        trace = StaticScheduleExecutor(sample_workflow, sample_costs, schedule, pool).run()
        assert trace.makespan() == pytest.approx(schedule.makespan())
        for job in sample_workflow.jobs:
            assert trace.actual_start(job) == pytest.approx(schedule.scheduled_start_time(job))
            assert trace.actual_finish(job) == pytest.approx(schedule.scheduled_finish_time(job))
            assert trace.resource_of(job) == schedule.resource_of(job)

    def test_transfers_recorded_between_distinct_resources(self, sample_workflow, sample_costs):
        pool = ResourcePool([Resource("r1"), Resource("r2"), Resource("r3")])
        schedule = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        trace = StaticScheduleExecutor(sample_workflow, sample_costs, schedule, pool).run()
        assert trace.transfers  # the sample DAG spans several resources
        for transfer in trace.transfers:
            assert transfer.source_resource != transfer.target_resource
            assert transfer.finish > transfer.start

    def test_incomplete_schedule_rejected(self, diamond_workflow, diamond_costs, two_resource_pool):
        schedule = HEFTScheduler().schedule(diamond_workflow, diamond_costs, ["r1", "r2"])
        partial = type(schedule)()
        partial.add(schedule.assignment("a"))
        with pytest.raises(ValueError, match="does not cover"):
            StaticScheduleExecutor(diamond_workflow, diamond_costs, partial, two_resource_pool)

    def test_unknown_resource_rejected(self, diamond_workflow, diamond_costs):
        schedule = HEFTScheduler().schedule(diamond_workflow, diamond_costs, ["r1", "r2"])
        pool = ResourcePool([Resource("r1")])
        with pytest.raises(ValueError, match="unknown resource"):
            StaticScheduleExecutor(diamond_workflow, diamond_costs, schedule, pool).run()

    def test_slower_actual_costs_stretch_the_trace(self, diamond_workflow, diamond_costs, two_resource_pool):
        schedule = HEFTScheduler().schedule(diamond_workflow, diamond_costs, ["r1", "r2"])
        slow = TabularCostModel(
            diamond_workflow,
            {
                job: {"r1": 2.0 * diamond_costs.computation_cost(job, "r1"),
                      "r2": 2.0 * diamond_costs.computation_cost(job, "r2")}
                for job in diamond_workflow.jobs
            },
        )
        trace = StaticScheduleExecutor(
            diamond_workflow, diamond_costs, schedule, two_resource_pool, actual_costs=slow
        ).run()
        assert trace.makespan() > schedule.makespan()
        # the executed trace is still a feasible schedule
        assert validate_schedule(diamond_workflow, diamond_costs, trace.to_schedule()) == []

    def test_trace_respects_precedence_and_exclusivity(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        pool = ResourcePool([Resource(f"r{i}") for i in range(1, 4)])
        schedule = HEFTScheduler().schedule(wf, costs, ["r1", "r2", "r3"])
        trace = StaticScheduleExecutor(wf, costs, schedule, pool).run()
        assert validate_schedule(wf, costs, trace.to_schedule()) == []


class TestJustInTimeExecutor:
    def test_executes_every_job(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        pool = ResourcePool([Resource(f"r{i}") for i in range(1, 4)])
        trace = JustInTimeExecutor(wf, costs, pool).run()
        assert len(trace.jobs()) == wf.num_jobs
        assert trace.makespan() > 0

    def test_trace_is_feasible(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        pool = ResourcePool([Resource(f"r{i}") for i in range(1, 4)])
        trace = JustInTimeExecutor(wf, costs, pool).run()
        assert validate_schedule(wf, costs, trace.to_schedule()) == []

    def test_uses_resources_that_join_later(self, sample_workflow, sample_costs):
        # with only one initial resource and a second joining immediately,
        # the dynamic mapper spreads work once the second resource exists
        pool = ResourcePool([Resource("r1"), Resource("r2", available_from=5.0)])
        trace = JustInTimeExecutor(sample_workflow, sample_costs, pool).run()
        assert set(trace.resources_used()) >= {"r1"}
        assert len(trace.jobs()) == sample_workflow.num_jobs

    def test_strategy_name_follows_mapper(self, diamond_workflow, diamond_costs, two_resource_pool):
        executor = JustInTimeExecutor(
            diamond_workflow, diamond_costs, two_resource_pool, mapper=MinMinScheduler()
        )
        assert executor.strategy_name == "MinMin"

    def test_no_resources_at_start_raises(self, diamond_workflow, diamond_costs):
        pool = ResourcePool([Resource("r1", available_from=100.0)])
        with pytest.raises(Exception):
            JustInTimeExecutor(diamond_workflow, diamond_costs, pool).run()

    def test_paper_assumption_dynamic_never_beats_static_on_sample(
        self, sample_workflow, sample_costs, sample_pool
    ):
        """On the worked example the dynamic strategy is no better than HEFT."""
        heft = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        trace = JustInTimeExecutor(sample_workflow, sample_costs, sample_pool).run()
        assert trace.makespan() >= heft.makespan() - 1e-9


class TestDepartureSemantics:
    """Departures (leave_fraction / scenario engine) honoured end to end."""

    @pytest.fixture
    def chain_costs(self, chain_workflow):
        return TabularCostModel(
            chain_workflow,
            {
                "a": {"r1": 10.0, "r2": 12.0},
                "b": {"r1": 10.0, "r2": 12.0},
                "c": {"r1": 10.0, "r2": 12.0},
            },
        )

    @pytest.fixture
    def departing_pool(self):
        """r1 departs at t=15, mid-way through the second chain job."""
        return ResourcePool(
            [Resource("r1", available_until=15.0), Resource("r2")]
        )

    def test_static_failover_reruns_killed_job(
        self, chain_workflow, chain_costs, departing_pool
    ):
        # HEFT puts the whole chain on the faster r1; r1 leaves at 15 while
        # job b runs, so b is killed (5 units wasted) and b, c fail over.
        schedule = HEFTScheduler().schedule(chain_workflow, chain_costs, ["r1", "r2"])
        assert all(schedule.resource_of(j) == "r1" for j in ("a", "b", "c"))
        trace = StaticScheduleExecutor(
            chain_workflow, chain_costs, schedule, departing_pool
        ).run()
        assert [(k.job_id, k.resource_id) for k in trace.kills] == [("b", "r1")]
        assert trace.kills[0].killed_at == pytest.approx(15.0)
        assert trace.wasted_work() == pytest.approx(5.0)
        assert trace.resource_of("b") == "r2"
        assert trace.resource_of("c") == "r2"
        assert set(trace.jobs()) == {"a", "b", "c"}
        # job a finished on r1 before the departure and stays untouched
        assert trace.resource_of("a") == "r1"
        assert trace.makespan() > schedule.makespan()

    def test_job_finishing_exactly_at_departure_completes(
        self, chain_workflow, chain_costs
    ):
        # r1 departs exactly when job b is scheduled to finish: no kill.
        pool = ResourcePool([Resource("r1", available_until=20.0), Resource("r2")])
        schedule = HEFTScheduler().schedule(chain_workflow, chain_costs, ["r1", "r2"])
        trace = StaticScheduleExecutor(
            chain_workflow, chain_costs, schedule, pool
        ).run()
        assert not trace.kills
        assert trace.resource_of("b") == "r1"
        assert trace.resource_of("c") == "r2"  # stranded job fails over

    def test_jit_executor_remaps_killed_job(
        self, chain_workflow, chain_costs, departing_pool
    ):
        trace = JustInTimeExecutor(
            chain_workflow,
            chain_costs,
            departing_pool,
            mapper=MinMinScheduler(),
        ).run()
        assert {k.job_id for k in trace.kills} == {"b"}
        assert trace.wasted_work() == pytest.approx(5.0)
        assert trace.resource_of("b") == "r2"
        assert set(trace.jobs()) == {"a", "b", "c"}

    def test_perf_profile_scales_static_durations(
        self, chain_workflow, chain_costs, two_resource_pool
    ):
        from repro.scenarios import PerformanceProfile

        profile = PerformanceProfile()
        profile.set_factor("r1", 0.0, 2.0)  # r1 at half speed from the start
        schedule = HEFTScheduler().schedule(chain_workflow, chain_costs, ["r1", "r2"])
        trace = StaticScheduleExecutor(
            chain_workflow,
            chain_costs,
            schedule,
            two_resource_pool,
            perf_profile=profile,
        ).run()
        # every chain job ran on r1 at factor 2 -> 20 units each
        assert trace.actual_finish("a") == pytest.approx(20.0)
        assert trace.makespan() == pytest.approx(60.0)

    def test_failover_target_departure_also_kills(self, chain_workflow):
        """A job failed over to an unscheduled resource dies with it too."""
        costs = TabularCostModel(
            chain_workflow,
            {
                "a": {"r1": 10.0, "r2": 12.0, "r3": 6.0},
                "b": {"r1": 10.0, "r2": 12.0, "r3": 6.0},
                "c": {"r1": 10.0, "r2": 12.0, "r3": 6.0},
            },
        )
        pool = ResourcePool(
            [
                Resource("r1", available_until=15.0),
                Resource("r2"),
                Resource("r3", available_until=18.0),
            ]
        )
        # plan only over r1/r2: r3 exists in the grid but not in the plan
        schedule = HEFTScheduler().schedule(chain_workflow, costs, ["r1", "r2"])
        assert all(schedule.resource_of(j) == "r1" for j in ("a", "b", "c"))
        trace = StaticScheduleExecutor(chain_workflow, costs, schedule, pool).run()
        # b is killed twice: on r1 at 15 (5 wasted), then on its failover
        # target r3 at 18 (2 wasted) — the second kill is the regression
        assert [(k.resource_id, k.job_id) for k in trace.kills] == [
            ("r1", "b"),
            ("r3", "b"),
        ]
        assert trace.wasted_work() == pytest.approx(7.0)
        assert trace.resource_of("b") == "r2"
        assert trace.resource_of("c") == "r2"
        until = pool.resource("r3").available_until
        assert trace.actual_finish("b") > until  # finished after r3 left, on r2

    def test_kill_before_execution_begins_wastes_nothing(self):
        """A mapping killed while its input transfer is still in flight
        (start in the future) re-queues silently: no negative waste."""
        from repro.workflow.dag import Workflow

        wf = Workflow("transfer-heavy")
        wf.add_job("a")
        wf.add_job("b")
        wf.add_edge("a", "b", data=50.0)
        costs = TabularCostModel(
            wf, {"a": {"r1": 10.0, "r2": 100.0}, "b": {"r1": 100.0, "r2": 10.0}}
        )
        pool = ResourcePool([Resource("r1"), Resource("r2", available_until=30.0)])
        # Min-Min maps b to r2 at t=10 with start=60 (50-unit transfer);
        # r2 departs at t=30, before b ever begins executing.
        trace = JustInTimeExecutor(wf, costs, pool, mapper=MinMinScheduler()).run()
        assert not trace.kills
        assert trace.wasted_work() == 0.0
        assert trace.resource_of("b") == "r1"
        assert set(trace.jobs()) == {"a", "b"}

    def test_no_transfers_recorded_to_departed_resources(
        self, chain_workflow, chain_costs, departing_pool
    ):
        schedule = HEFTScheduler().schedule(chain_workflow, chain_costs, ["r1", "r2"])
        trace = StaticScheduleExecutor(
            chain_workflow, chain_costs, schedule, departing_pool
        ).run()
        for transfer in trace.transfers:
            until = departing_pool.resource(transfer.target_resource).available_until
            assert until is None or transfer.start < until
