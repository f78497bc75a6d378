"""Tests for AHEFT — the paper's adaptive rescheduling algorithm."""

import pytest

from repro.generators.sample import sample_dag_cost_model, sample_dag_workflow
from repro.resources.pool import ResourcePool
from repro.resources.resource import Resource
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import ExecutionState, JobStatus
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.validation import validate_schedule


class TestInitialSchedulingIdentity:
    """At clock 0 with no history AHEFT is identical to HEFT (paper §3.4)."""

    def test_identical_on_sample(self, sample_workflow, sample_costs):
        heft = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        aheft = AHEFTScheduler().reschedule(
            sample_workflow, sample_costs, ["r1", "r2", "r3"], clock=0.0, previous_schedule=None
        )
        assert aheft.to_dict() == heft.to_dict()

    def test_identical_on_random_case(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        resources = ["r1", "r2", "r3", "r4"]
        assert (
            AHEFTScheduler()
            .reschedule(wf, costs, resources, clock=0.0, previous_schedule=None)
            .to_dict()
            == HEFTScheduler().schedule(wf, costs, resources).to_dict()
        )

    def test_scheduler_wrapper_initial(self, diamond_workflow, diamond_costs):
        schedule = AHEFTScheduler().schedule(diamond_workflow, diamond_costs, ["r1", "r2"])
        assert len(schedule) == diamond_workflow.num_jobs


class TestReschedulingMechanics:
    @pytest.fixture
    def sample_setup(self, sample_workflow, sample_costs):
        previous = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        state = ExecutionState.from_schedule(previous, clock=15.0, jobs=sample_workflow.jobs)
        return sample_workflow, sample_costs, previous, state

    def test_finished_jobs_are_pinned(self, sample_setup):
        wf, costs, previous, state = sample_setup
        new = AHEFTScheduler().reschedule(
            wf, costs, ["r1", "r2", "r3", "r4"], clock=15.0,
            previous_schedule=previous, execution_state=state,
        )
        assert new.assignment("n1").resource_id == previous.assignment("n1").resource_id
        assert new.assignment("n1").finish == pytest.approx(9.0)

    def test_running_job_stays_pinned(self, sample_setup):
        wf, costs, previous, state = sample_setup
        assert state.is_running("n3")
        new = AHEFTScheduler().reschedule(
            wf, costs, ["r1", "r2", "r3", "r4"], clock=15.0,
            previous_schedule=previous, execution_state=state,
        )
        assert new.assignment("n3").resource_id == previous.assignment("n3").resource_id
        assert new.assignment("n3").start == previous.assignment("n3").start

    def test_not_started_jobs_start_at_or_after_clock_or_keep_validity(self, sample_setup):
        wf, costs, previous, state = sample_setup
        new = AHEFTScheduler().reschedule(
            wf, costs, ["r1", "r2", "r3", "r4"], clock=15.0,
            previous_schedule=previous, execution_state=state,
        )
        for job in state.not_started_jobs():
            assert new.assignment(job).start >= 15.0 - 1e-9

    def test_rescheduled_schedule_is_feasible(self, sample_setup):
        wf, costs, previous, state = sample_setup
        pool = ResourcePool(
            [Resource("r1"), Resource("r2"), Resource("r3"), Resource("r4", available_from=15.0)]
        )
        new = AHEFTScheduler().reschedule(
            wf, costs, ["r1", "r2", "r3", "r4"], clock=15.0,
            previous_schedule=previous, execution_state=state,
        )
        assert validate_schedule(wf, costs, new, pool=pool) == []

    def test_rescheduling_never_touches_resources_outside_the_set(self, sample_setup):
        wf, costs, previous, state = sample_setup
        new = AHEFTScheduler().reschedule(
            wf, costs, ["r1", "r2"], clock=15.0,
            previous_schedule=previous, execution_state=state,
        )
        for job in state.not_started_jobs():
            assert new.assignment(job).resource_id in {"r1", "r2"}

    def test_empty_resource_set_rejected(self, sample_setup):
        wf, costs, previous, state = sample_setup
        with pytest.raises(ValueError):
            AHEFTScheduler().reschedule(wf, costs, [], clock=15.0, previous_schedule=previous)

    def test_negative_clock_rejected(self, sample_workflow, sample_costs):
        with pytest.raises(ValueError):
            AHEFTScheduler().reschedule(
                sample_workflow, sample_costs, ["r1"], clock=-1.0, previous_schedule=None
            )

    def test_state_derived_from_schedule_when_omitted(self, sample_workflow, sample_costs):
        previous = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        new = AHEFTScheduler().reschedule(
            sample_workflow, sample_costs, ["r1", "r2", "r3", "r4"],
            clock=15.0, previous_schedule=previous,
        )
        # n1 finished before clock 15, so it must be pinned to its actual run
        assert new.assignment("n1").finish == pytest.approx(9.0)


class TestFEACases:
    """Exercise Equation (1) case by case on a tiny chain a -> b."""

    @pytest.fixture
    def chain_setup(self, chain_workflow):
        from repro.workflow.costs import TabularCostModel

        costs = TabularCostModel(
            chain_workflow,
            {
                "a": {"r1": 4.0, "r2": 4.0},
                "b": {"r1": 5.0, "r2": 5.0},
                "c": {"r1": 6.0, "r2": 6.0},
            },
        )
        previous = HEFTScheduler().schedule(chain_workflow, costs, ["r1"])
        return chain_workflow, costs, previous

    @staticmethod
    def _state_a_finished(workflow, clock):
        """a finished on r1 at t=4; b and c not started; clock as given."""
        state = ExecutionState.initial(workflow.jobs)
        state.clock = clock
        state.record_start("a", "r1", 0.0)
        state.record_finish("a", 4.0)
        return state

    def test_case1_local_output_free(self, chain_setup):
        wf, costs, previous = chain_setup
        state = self._state_a_finished(wf, clock=6.0)
        new = AHEFTScheduler().reschedule(
            wf, costs, ["r1", "r2"], clock=6.0,
            previous_schedule=previous, execution_state=state,
        )
        assert new.assignment("b").resource_id == "r1"
        assert new.assignment("b").start == pytest.approx(6.0)

    def test_case2_transfer_starts_at_clock(self, chain_workflow):
        from repro.workflow.costs import TabularCostModel

        # make r2 much faster for b so it is chosen despite the transfer
        costs = TabularCostModel(
            chain_workflow,
            {
                "a": {"r1": 4.0, "r2": 40.0},
                "b": {"r1": 50.0, "r2": 1.0},
                "c": {"r1": 50.0, "r2": 1.0},
            },
        )
        previous = HEFTScheduler().schedule(chain_workflow, costs, ["r1"])
        clock = 10.0
        state = self._state_a_finished(chain_workflow, clock)
        new = AHEFTScheduler().reschedule(
            chain_workflow, costs, ["r1", "r2"], clock=clock,
            previous_schedule=previous, execution_state=state,
        )
        b = new.assignment("b")
        assert b.resource_id == "r2"
        # a's output was never scheduled to move to r2, so the transfer can
        # only start at the rescheduling clock: start = clock + c(a, b)
        assert b.start == pytest.approx(clock + chain_workflow.data("a", "b"))

    def test_in_flight_transfer_recorded_in_state_is_used(self, chain_workflow):
        from repro.workflow.costs import TabularCostModel

        costs = TabularCostModel(
            chain_workflow,
            {
                "a": {"r1": 4.0, "r2": 40.0},
                "b": {"r1": 50.0, "r2": 1.0},
                "c": {"r1": 50.0, "r2": 1.0},
            },
        )
        previous = HEFTScheduler().schedule(chain_workflow, costs, ["r1"])
        clock = 10.0
        state = self._state_a_finished(chain_workflow, clock)
        # the Executor already shipped a's output to r2, arriving at t=7
        state.record_data_arrival("a", "r2", 7.0)
        new = AHEFTScheduler().reschedule(
            chain_workflow, costs, ["r1", "r2"], clock=clock,
            previous_schedule=previous, execution_state=state,
        )
        assert new.assignment("b").start == pytest.approx(clock)

    def test_unfinished_predecessor_same_resource_case3(self, chain_setup):
        wf, costs, previous = chain_setup
        # at clock 2, a is still running on r1 until 4; b placed on r1 starts at 4
        new = AHEFTScheduler().reschedule(
            wf, costs, ["r1", "r2"], clock=2.0, previous_schedule=previous,
        )
        assert new.assignment("b").resource_id == "r1"
        assert new.assignment("b").start == pytest.approx(4.0)


class TestAdoptionGuarantee:
    def test_candidate_never_schedules_before_clock(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        previous = HEFTScheduler().schedule(wf, costs, ["r1", "r2"])
        clock = previous.makespan() * 0.3
        state = ExecutionState.from_schedule(previous, clock, jobs=wf.jobs)
        new = AHEFTScheduler().reschedule(
            wf, costs, ["r1", "r2", "r3", "r4"], clock=clock,
            previous_schedule=previous, execution_state=state,
        )
        for job in state.not_started_jobs():
            assert new.assignment(job).start >= clock - 1e-9

    def test_reschedule_with_extra_resources_never_increases_makespan_after_accept_rule(
        self, small_random_case
    ):
        """The Planner adopts S1 only if better, so min(S0, S1) <= S0 trivially;
        here we check S1 itself is usually no worse when resources are added."""
        wf, costs = small_random_case.workflow, small_random_case.costs
        previous = HEFTScheduler().schedule(wf, costs, ["r1", "r2"])
        clock = previous.makespan() * 0.25
        new = AHEFTScheduler().reschedule(
            wf, costs, ["r1", "r2", "r3", "r4", "r5"], clock=clock,
            previous_schedule=previous,
        )
        # even if the heuristic fails to improve, the accept-if-better rule
        # caps the adopted plan at the previous makespan
        assert min(new.makespan(), previous.makespan()) <= previous.makespan()
