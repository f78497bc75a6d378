"""Tests for the dynamic Min-Min family and the extra baselines."""

import pytest

from repro.scheduling.baselines import (
    MaxMinScheduler,
    OpportunisticLoadBalancer,
    RandomStaticScheduler,
    SufferageScheduler,
)
from repro.scheduling.minmin import MinMinScheduler, minmin_batch
from repro.scheduling.validation import validate_schedule
from repro.workflow.costs import TabularCostModel
from repro.workflow.dag import Workflow


@pytest.fixture
def fork_workflow():
    """One finished producer feeding three independent ready jobs."""
    wf = Workflow("fork")
    wf.add_job("src")
    for job in ["x", "y", "z"]:
        wf.add_job(job)
        wf.add_edge("src", job, data=2.0)
    return wf


@pytest.fixture
def fork_costs(fork_workflow):
    return TabularCostModel(
        fork_workflow,
        {
            "src": {"r1": 1.0, "r2": 1.0},
            "x": {"r1": 2.0, "r2": 8.0},
            "y": {"r1": 6.0, "r2": 3.0},
            "z": {"r1": 10.0, "r2": 10.0},
        },
    )


class TestMinMinBatch:
    def test_all_ready_jobs_mapped(self, fork_workflow, fork_costs):
        assignments = minmin_batch(
            ["x", "y", "z"],
            fork_workflow,
            fork_costs,
            ["r1", "r2"],
            clock=5.0,
            resource_free={"r1": 5.0, "r2": 5.0},
            data_location={"src": "r1"},
        )
        assert {a.job_id for a in assignments} == {"x", "y", "z"}

    def test_shortest_job_first_and_local_data_preferred(self, fork_workflow, fork_costs):
        assignments = minmin_batch(
            ["x", "y"],
            fork_workflow,
            fork_costs,
            ["r1", "r2"],
            clock=5.0,
            resource_free={"r1": 5.0, "r2": 5.0},
            data_location={"src": "r1"},
        )
        # x on r1 completes at 7 (local data), the global minimum -> fixed first
        assert assignments[0].job_id == "x"
        assert assignments[0].resource_id == "r1"
        assert assignments[0].finish == pytest.approx(7.0)

    def test_transfer_starts_at_decision_time(self, fork_workflow, fork_costs):
        assignments = minmin_batch(
            ["y"],
            fork_workflow,
            fork_costs,
            ["r1", "r2"],
            clock=5.0,
            resource_free={"r1": 5.0, "r2": 5.0},
            data_location={"src": "r1"},
        )
        y = assignments[0]
        # y prefers r2 (cost 3) but must wait for the transfer started now: 5 + 2
        assert y.resource_id == "r2"
        assert y.start == pytest.approx(7.0)

    def test_unready_job_rejected(self, fork_workflow, fork_costs):
        with pytest.raises(ValueError, match="not ready"):
            minmin_batch(
                ["x"],
                fork_workflow,
                fork_costs,
                ["r1"],
                clock=0.0,
                resource_free={},
                data_location={},
            )

    def test_empty_resources_rejected(self, fork_workflow, fork_costs):
        with pytest.raises(ValueError):
            minmin_batch(
                ["x"], fork_workflow, fork_costs, [],
                clock=0.0, resource_free={}, data_location={"src": "r1"},
            )

    def test_no_two_jobs_overlap_on_one_resource(self, fork_workflow, fork_costs):
        assignments = minmin_batch(
            ["x", "y", "z"],
            fork_workflow,
            fork_costs,
            ["r1"],
            clock=5.0,
            resource_free={"r1": 5.0},
            data_location={"src": "r1"},
        )
        assignments.sort(key=lambda a: a.start)
        for first, second in zip(assignments, assignments[1:]):
            assert second.start >= first.finish - 1e-9


class TestMaxMinAndSufferage:
    def test_maxmin_fixes_longest_job_first(self, fork_workflow, fork_costs):
        assignments = MaxMinScheduler().map_ready_jobs(
            ["x", "z"],
            fork_workflow,
            fork_costs,
            ["r1", "r2"],
            clock=5.0,
            resource_free={"r1": 5.0, "r2": 5.0},
            data_location={"src": "r1"},
        )
        assert assignments[0].job_id == "z"

    def test_sufferage_prioritises_job_with_largest_penalty(self, fork_workflow, fork_costs):
        assignments = SufferageScheduler().map_ready_jobs(
            ["x", "y"],
            fork_workflow,
            fork_costs,
            ["r1", "r2"],
            clock=5.0,
            resource_free={"r1": 5.0, "r2": 5.0},
            data_location={"src": "r1"},
        )
        # x suffers 8-2=6 on losing r1, y suffers |6-3|=3ish -> x first
        assert assignments[0].job_id == "x"

    def test_all_schedulers_map_every_job(self, fork_workflow, fork_costs):
        for mapper in (MinMinScheduler(), MaxMinScheduler(), SufferageScheduler()):
            assignments = mapper.map_ready_jobs(
                ["x", "y", "z"],
                fork_workflow,
                fork_costs,
                ["r1", "r2"],
                clock=0.0,
                resource_free={},
                data_location={"src": "r1"},
            )
            assert len(assignments) == 3


class TestStaticBaselines:
    def test_random_static_schedules_everything_feasibly(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        schedule = RandomStaticScheduler(seed=3).schedule(wf, costs, ["r1", "r2", "r3"])
        assert validate_schedule(wf, costs, schedule) == []

    def test_random_static_deterministic_per_seed(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        a = RandomStaticScheduler(seed=3).schedule(wf, costs, ["r1", "r2"])
        b = RandomStaticScheduler(seed=3).schedule(wf, costs, ["r1", "r2"])
        c = RandomStaticScheduler(seed=4).schedule(wf, costs, ["r1", "r2"])
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() != c.to_dict()

    def test_olb_schedules_everything_feasibly(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        schedule = OpportunisticLoadBalancer().schedule(wf, costs, ["r1", "r2", "r3"])
        assert validate_schedule(wf, costs, schedule) == []

    def test_heft_beats_random_and_olb_on_average(self, small_random_case):
        from repro.scheduling.heft import HEFTScheduler

        wf, costs = small_random_case.workflow, small_random_case.costs
        resources = ["r1", "r2", "r3"]
        heft = HEFTScheduler().schedule(wf, costs, resources).makespan()
        random_ms = RandomStaticScheduler(seed=1).schedule(wf, costs, resources).makespan()
        olb_ms = OpportunisticLoadBalancer().schedule(wf, costs, resources).makespan()
        assert heft <= random_ms + 1e-9
        assert heft <= olb_ms + 1e-9

    def test_empty_resources_rejected(self, diamond_workflow, diamond_costs):
        with pytest.raises(ValueError):
            RandomStaticScheduler().schedule(diamond_workflow, diamond_costs, [])
        with pytest.raises(ValueError):
            OpportunisticLoadBalancer().schedule(diamond_workflow, diamond_costs, [])
