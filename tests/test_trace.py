"""Tests for execution traces and Gantt rendering."""

import pytest

from repro.scheduling.base import Assignment, Schedule
from repro.simulation.trace import ExecutionTrace, TransferRecord, render_gantt


@pytest.fixture
def trace():
    t = ExecutionTrace(workflow_name="wf", strategy="TEST")
    t.record_job("a", "r1", 0.0, 5.0)
    t.record_job("b", "r2", 6.0, 10.0)
    t.record_transfer(TransferRecord("a", "b", "r1", "r2", 5.0, 6.0))
    t.record_event(5.0, "reschedule-adopted", "+r3")
    t.record_event(8.0, "pool-change", "+r4")
    return t


class TestExecutionTrace:
    def test_makespan(self, trace):
        assert trace.makespan() == 10.0
        assert ExecutionTrace().makespan() == 0.0

    def test_job_queries(self, trace):
        assert trace.actual_start("b") == 6.0
        assert trace.actual_finish("a") == 5.0
        assert trace.resource_of("a") == "r1"
        assert trace.resources_used() == ["r1", "r2"]
        assert trace.jobs() == ["a", "b"]

    def test_transfer_accounting(self, trace):
        assert trace.total_transfer_time() == pytest.approx(1.0)
        assert trace.transfers[0].duration == pytest.approx(1.0)

    def test_empty_totals_are_floats(self):
        empty = ExecutionTrace()
        assert type(empty.total_transfer_time()) is float
        assert type(empty.wasted_work()) is float

    def test_event_queries(self, trace):
        assert trace.rescheduling_count() == 1
        assert len(trace.events_of_kind("pool-change")) == 1

    def test_utilisation(self, trace):
        assert trace.resource_busy_time("r1") == 5.0
        assert trace.utilisation("r1") == pytest.approx(0.5)
        assert trace.utilisation("r2") == pytest.approx(0.4)

    def test_to_schedule(self, trace):
        schedule = trace.to_schedule()
        assert isinstance(schedule, Schedule)
        assert schedule.makespan() == 10.0
        assert schedule.resource_of("b") == "r2"

    def test_to_rows_sorted_by_resource_then_time(self, trace):
        rows = trace.to_rows()
        assert rows[0][0] == "r1"
        assert rows[-1][0] == "r2"


class TestRenderGantt:
    def test_renders_one_row_per_resource(self, trace):
        text = render_gantt(trace)
        lines = text.splitlines()
        assert any("r1" in line for line in lines)
        assert any("r2" in line for line in lines)

    def test_renders_schedule_objects_too(self):
        schedule = Schedule()
        schedule.add(Assignment("x", "r1", 0.0, 4.0))
        text = render_gantt(schedule, width=40)
        assert "r1" in text

    def test_empty_schedule(self):
        assert "empty" in render_gantt(Schedule())
