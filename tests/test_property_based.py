"""Property-based tests (hypothesis) on the core invariants.

These tests generate random workflows, cost structures and rescheduling
scenarios and assert the structural invariants that must hold regardless of
the inputs:

* every heuristic produces complete, precedence- and exclusivity-feasible
  schedules,
* AHEFT at clock 0 is HEFT,
* the adaptive loop never ends up worse than static HEFT (the accept-if-
  better guarantee),
* resource timelines never double-book,
* the topological sort really is topological.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.resources.dynamics import ResourceChangeModel
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import ExecutionState, ResourceTimeline
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.validation import validate_schedule
from repro.utils.ordering import topological_order
from repro.utils.rng import spawn_rng
from repro.workflow.costs import HeterogeneousCostModel
from repro.workflow.dag import Workflow

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def random_workflow(draw, max_jobs: int = 14):
    """A random DAG with edges only from lower to higher job index."""
    n = draw(st.integers(min_value=2, max_value=max_jobs))
    wf = Workflow(f"hyp-{n}")
    for index in range(n):
        wf.add_job(f"j{index}")
    for dst in range(1, n):
        # each job gets at least one predecessor to keep the DAG connected
        preds = draw(
            st.sets(st.integers(min_value=0, max_value=dst - 1), min_size=1, max_size=min(3, dst))
        )
        for src in preds:
            data = draw(st.floats(min_value=0.0, max_value=40.0, allow_nan=False))
            wf.add_edge(f"j{src}", f"j{dst}", data=data)
    return wf


@st.composite
def priced_workflow(draw):
    wf = draw(random_workflow())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    beta = draw(st.sampled_from([0.1, 0.5, 1.0]))
    rng = spawn_rng(seed, "hyp-costs")
    base = {job: float(rng.uniform(1.0, 60.0)) for job in wf.jobs}
    costs = HeterogeneousCostModel(wf, base, beta=beta, seed=seed)
    return wf, costs


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestSchedulingProperties:
    @SETTINGS
    @given(case=priced_workflow(), n_resources=st.integers(min_value=1, max_value=5))
    def test_heft_schedules_are_feasible(self, case, n_resources):
        wf, costs = case
        resources = [f"r{i}" for i in range(1, n_resources + 1)]
        schedule = HEFTScheduler().schedule(wf, costs, resources)
        assert len(schedule) == wf.num_jobs
        assert validate_schedule(wf, costs, schedule) == []

    @SETTINGS
    @given(case=priced_workflow(), n_resources=st.integers(min_value=1, max_value=4))
    def test_aheft_at_clock_zero_equals_heft(self, case, n_resources):
        wf, costs = case
        resources = [f"r{i}" for i in range(1, n_resources + 1)]
        assert (
            AHEFTScheduler()
            .reschedule(wf, costs, resources, clock=0.0, previous_schedule=None)
            .to_dict()
            == HEFTScheduler().schedule(wf, costs, resources).to_dict()
        )

    @SETTINGS
    @given(
        case=priced_workflow(),
        fraction=st.sampled_from([0.2, 0.5, 1.0]),
        when=st.floats(min_value=0.05, max_value=0.9),
    )
    def test_rescheduling_mid_flight_stays_feasible(self, case, fraction, when):
        wf, costs = case
        previous = HEFTScheduler().schedule(wf, costs, ["r1", "r2"])
        clock = max(previous.makespan() * when, 1e-6)
        state = ExecutionState.from_schedule(previous, clock, jobs=wf.jobs)
        extra = max(1, math.ceil(2 * fraction))
        resources = ["r1", "r2"] + [f"x{i}" for i in range(extra)]
        candidate = AHEFTScheduler().reschedule(
            wf, costs, resources, clock=clock,
            previous_schedule=previous, execution_state=state,
        )
        assert len(candidate) == wf.num_jobs
        assert validate_schedule(wf, costs, candidate) == []
        for job in state.not_started_jobs():
            assert candidate.assignment(job).start >= clock - 1e-9

    @SETTINGS
    @given(
        case=priced_workflow(),
        initial=st.integers(min_value=1, max_value=3),
        interval=st.sampled_from([20.0, 60.0, 150.0]),
        fraction=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_adaptive_never_worse_than_static(self, case, initial, interval, fraction):
        wf, costs = case
        pool = ResourceChangeModel(
            initial_size=initial, interval=interval, fraction=fraction, max_events=16
        ).build_pool()
        static = repro.run(wf, pool, costs=costs, mode="static").raw
        adaptive = repro.run(wf, pool, costs=costs, mode="adaptive").raw
        assert adaptive.makespan <= static.makespan + 1e-6
        assert (
            validate_schedule(wf, costs, adaptive.final_schedule, pool=pool) == []
        )


class TestDataStructureProperties:
    @SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_timeline_never_double_books(self, tasks):
        timeline = ResourceTimeline("r")
        placed = []
        for index, (ready, duration) in enumerate(tasks):
            start = timeline.earliest_start(ready, duration, insertion=True)
            timeline.occupy(start, start + duration, f"t{index}")
            placed.append((start, start + duration))
        placed.sort()
        for (s1, f1), (s2, f2) in zip(placed, placed[1:]):
            assert s2 >= f1 - 1e-9

    @SETTINGS
    @given(random_workflow())
    def test_topological_order_is_topological(self, wf):
        order = wf.topological_order()
        index = {job: i for i, job in enumerate(order)}
        assert len(order) == wf.num_jobs
        for src, dst, _ in wf.edges():
            assert index[src] < index[dst]

    @SETTINGS
    @given(random_workflow())
    def test_serialization_round_trip(self, wf):
        from repro.workflow.serialization import workflow_from_json, workflow_to_json

        rebuilt = workflow_from_json(workflow_to_json(wf))
        assert rebuilt.jobs == wf.jobs
        assert sorted(rebuilt.edges()) == sorted(wf.edges())

    @SETTINGS
    @given(case=priced_workflow())
    def test_upward_rank_dominates_successors(self, case):
        from repro.workflow.analysis import upward_ranks

        wf, costs = case
        ranks = upward_ranks(wf, costs, ["r1", "r2"])
        for src, dst, _ in wf.edges():
            assert ranks[src] >= ranks[dst] - 1e-9


class TestRanksTrackDataEdits:
    @SETTINGS
    @given(
        case=priced_workflow(),
        n_resources=st.integers(min_value=1, max_value=4),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=10_000),
                    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_ranks_after_data_edits_equal_the_oracle(self, case, n_resources, batches):
        """Random set_data batches: ranks == the scalar seed recurrence."""
        from benchmarks._seed_reference import seed_upward_ranks
        from repro.workflow.analysis import upward_ranks

        wf, costs = case
        resources = [f"r{i}" for i in range(1, n_resources + 1)]
        edges = wf.edges()
        upward_ranks(wf, costs, resources)
        for batch in batches:
            for pick, volume in batch:
                src, dst, _ = edges[pick % len(edges)]
                wf.set_data(src, dst, volume)
            assert upward_ranks(wf, costs, resources) == seed_upward_ranks(wf, costs, resources)
