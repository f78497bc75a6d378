"""Unit tests for the reservation replay and the Performance Monitor helpers.

:func:`repro.core.adaptive.project_actuals` replays booked executions under
ground-truth durations: an execution starts at its booked start, later if
its resource is still busy or an input is late, never earlier.  The cases
below use tiny hand-built plans whose replay can be worked out by hand.
"""

from __future__ import annotations

import pytest

from repro.core.adaptive import project_actuals
from repro.core.history import PerformanceHistoryRepository
from repro.scenarios.base import PerformanceProfile
from repro.scheduling.base import Assignment, Schedule
from repro.scheduling.heft import HEFTScheduler
from repro.simulation.executor import dispatch_duration, record_observation
from repro.workflow.costs import TabularCostModel
from repro.workflow.dag import Workflow


def _workflow(jobs, edges=()):
    workflow = Workflow("w")
    for job in jobs:
        workflow.add_job(job, operation=f"op-{job}")
    for src, dst, data in edges:
        workflow.add_edge(src, dst, data=data)
    return workflow


def _plan(*assignments, duplicates=()):
    plan = Schedule()
    for job, rid, start, finish in assignments:
        plan.add(Assignment(job, rid, start, finish))
    for job, rid, start, finish in duplicates:
        plan.add_duplicate(Assignment(job, rid, start, finish))
    return plan


def _truth(workflow, costs):
    return TabularCostModel(workflow, {job: dict(row) for job, row in costs.items()})


def test_accurate_truth_reproduces_the_plan(diamond_workflow, diamond_costs):
    plan = HEFTScheduler().schedule(diamond_workflow, diamond_costs, ["r1", "r2"])
    (actuals,) = project_actuals([(diamond_workflow, plan, {}, diamond_costs)])
    assert actuals == {a.job_id: a for a in plan}


def test_overrun_pushes_the_next_booking_on_the_resource():
    workflow = _workflow(["a", "b"])
    plan = _plan(("a", "r1", 0.0, 4.0), ("b", "r1", 4.0, 6.0))
    truth = _truth(workflow, {"a": {"r1": 7.0}, "b": {"r1": 2.0}})
    (actuals,) = project_actuals([(workflow, plan, {}, truth)])
    assert actuals["a"] == Assignment("a", "r1", 0.0, 7.0)
    assert actuals["b"] == Assignment("b", "r1", 7.0, 9.0)


def test_late_input_delays_a_consumer_on_another_resource():
    workflow = _workflow(["a", "b"], [("a", "b", 3.0)])
    plan = _plan(("a", "r1", 0.0, 4.0), ("b", "r2", 7.0, 9.0))
    truth = _truth(workflow, {"a": {"r1": 5.0}, "b": {"r2": 2.0}})
    (actuals,) = project_actuals([(workflow, plan, {}, truth)])
    # a finishes at 5.0 and its output needs 3.0 to reach r2
    assert actuals["b"] == Assignment("b", "r2", 8.0, 10.0)


def test_early_finish_never_starts_before_the_booking():
    workflow = _workflow(["a", "b"])
    plan = _plan(("a", "r1", 0.0, 4.0), ("b", "r1", 4.0, 6.0))
    truth = _truth(workflow, {"a": {"r1": 1.0}, "b": {"r1": 2.0}})
    (actuals,) = project_actuals([(workflow, plan, {}, truth)])
    assert actuals["a"] == Assignment("a", "r1", 0.0, 1.0)
    assert actuals["b"] == Assignment("b", "r1", 4.0, 6.0)


def test_started_facts_occupy_their_resource_and_feed_consumers():
    workflow = _workflow(["a", "b", "c"], [("a", "c", 0.0)])
    plan = _plan(("a", "r1", 0.0, 4.0), ("b", "r2", 0.0, 2.0), ("c", "r2", 4.0, 5.0))
    truth = _truth(workflow, {"a": {"r1": 4.0}, "b": {"r2": 2.0}, "c": {"r2": 1.0}})
    started = {"a": Assignment("a", "r1", 0.0, 6.0)}
    (actuals,) = project_actuals([(workflow, plan, started, truth)])
    # started work is a fact: it is not replayed, only waited for
    assert set(actuals) == {"b", "c"}
    assert actuals["c"] == Assignment("c", "r2", 6.0, 7.0)


def test_tenants_share_the_free_time_of_a_resource():
    first = _workflow(["x"])
    second = _workflow(["y"])
    first_plan = _plan(("x", "r1", 0.0, 3.0))
    second_plan = _plan(("y", "r1", 3.0, 5.0))
    actual_first, actual_second = project_actuals(
        [
            (first, first_plan, {}, _truth(first, {"x": {"r1": 4.5}})),
            (second, second_plan, {}, _truth(second, {"y": {"r1": 2.0}})),
        ]
    )
    assert actual_first["x"] == Assignment("x", "r1", 0.0, 4.5)
    # the other tenant's overrun holds the resource past y's booking
    assert actual_second["y"] == Assignment("y", "r1", 4.5, 6.5)


def test_equal_bookings_run_in_workflow_order():
    first = _workflow(["x"])
    second = _workflow(["x"])
    entries = [
        (first, _plan(("x", "r1", 5.0, 5.0)), {}, _truth(first, {"x": {"r1": 2.0}})),
        (second, _plan(("x", "r1", 5.0, 5.0)), {}, _truth(second, {"x": {"r1": 3.0}})),
    ]
    forward = project_actuals(entries)
    assert forward[0]["x"] == Assignment("x", "r1", 5.0, 7.0)
    assert forward[1]["x"] == Assignment("x", "r1", 7.0, 10.0)
    backward = project_actuals(entries[::-1])
    assert backward[0]["x"] == Assignment("x", "r1", 5.0, 8.0)
    assert backward[1]["x"] == Assignment("x", "r1", 8.0, 10.0)


def test_duplicate_copy_feeds_its_local_consumer():
    workflow = _workflow(["a", "b"], [("a", "b", 10.0)])
    plan = _plan(
        ("a", "r1", 0.0, 2.0),
        ("b", "r2", 2.0, 3.0),
        duplicates=[("a", "r2", 0.0, 2.0)],
    )
    truth = _truth(workflow, {"a": {"r1": 2.0, "r2": 2.5}, "b": {"r2": 1.0}})
    (actuals,) = project_actuals([(workflow, plan, {}, truth)])
    assert actuals[("a", "r2")] == Assignment("a", "r2", 0.0, 2.5)
    # the local copy (2.5) beats the remote primary (2.0 + 10.0)
    assert actuals["b"] == Assignment("b", "r2", 2.5, 3.5)


def test_unbooked_predecessor_stalls_the_replay():
    workflow = _workflow(["a", "b"], [("a", "b", 1.0)])
    plan = _plan(("b", "r1", 5.0, 6.0))
    truth = _truth(workflow, {"a": {"r1": 1.0}, "b": {"r1": 1.0}})
    with pytest.raises(ValueError, match="stalled"):
        project_actuals([(workflow, plan, {}, truth)])


def test_dispatch_duration_freezes_the_factor_at_dispatch():
    workflow = _workflow(["a"])
    truth = _truth(workflow, {"a": {"r1": 4.0}})
    profile = PerformanceProfile()
    profile.set_factor("r1", 10.0, 2.5)
    assert dispatch_duration(truth, "a", "r1", 9.0) == 4.0
    assert dispatch_duration(truth, "a", "r1", 9.0, profile) == 4.0
    assert dispatch_duration(truth, "a", "r1", 10.0, profile) == 10.0


def test_record_observation_normalises_by_the_dispatch_factor():
    workflow = _workflow(["a"])
    estimates = _truth(workflow, {"a": {"r1": 3.0}})
    profile = PerformanceProfile()
    profile.set_factor("r1", 10.0, 2.0)
    history = PerformanceHistoryRepository()
    record_observation(history, workflow, estimates, "a", "r1", 0.0, 5.0, profile)
    record_observation(history, workflow, estimates, "a", "r1", 10.0, 18.0, profile)
    first, second = history.records
    assert (first.operation, first.resource_id, first.duration) == ("op-a", "r1", 5.0)
    assert (second.duration, second.finished_at, second.estimated) == (4.0, 18.0, 3.0)
    assert second.job_id == "a"
    # no history: the monitor records nothing and does not fail
    record_observation(None, workflow, estimates, "a", "r1", 0.0, 5.0, profile)
