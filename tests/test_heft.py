"""Tests for the static HEFT baseline, including the paper's worked example."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.sample import sample_dag_cost_model, sample_dag_workflow
from repro.scheduling.heft import HEFTScheduler, heft_priority_order
from repro.scheduling.validation import validate_schedule
from repro.workflow.analysis import upward_ranks
from repro.workflow.costs import HeterogeneousCostModel
from repro.workflow.dag import Workflow


@st.composite
def _tied_case(draw):
    """A DAG whose insertion order is not its topological order, priced
    with many zero-cost jobs and zero-volume edges, so ranks tie often."""
    n = draw(st.integers(min_value=1, max_value=16))
    hidden = draw(st.permutations(range(n)))  # insertion order of the jobs
    wf = Workflow("ties")
    for k in hidden:
        wf.add_job(f"j{k}")
    for dst in range(1, n):
        preds = draw(st.sets(st.integers(min_value=0, max_value=dst - 1), max_size=min(3, dst)))
        for src in sorted(preds):
            wf.add_edge(f"j{src}", f"j{dst}", data=draw(st.sampled_from([0.0, 0.0, 1.0, 4.5])))
    base = {job: draw(st.sampled_from([0.0, 0.0, 3.0, 10.0])) for job in wf.jobs}
    costs = HeterogeneousCostModel(
        wf, base, beta=draw(st.sampled_from([0.0, 0.5])), seed=draw(st.integers(0, 99))
    )
    return wf, costs


def _sorted_key_order(workflow, costs, resources):
    """The scalar reference: sort by (-rank, topological position, job)."""
    ranks = upward_ranks(workflow, costs, resources)
    topo_index = {job: idx for idx, job in enumerate(workflow.topological_order())}
    return sorted(workflow.jobs, key=lambda job: (-ranks[job], topo_index[job], job))


class TestPriorityOrder:
    def test_topologically_consistent(self, small_random_case):
        wf = small_random_case.workflow
        costs = small_random_case.costs
        order = heft_priority_order(wf, costs, ["r1", "r2"])
        index = {job: i for i, job in enumerate(order)}
        for src, dst, _ in wf.edges():
            assert index[src] < index[dst]

    def test_classic_order_starts_with_entry(self, sample_workflow, sample_costs):
        order = heft_priority_order(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        assert order[0] == "n1"
        assert order[-1] == "n10"


class TestLexsortOrder:
    """The order from one lexsort over (topological position, -rank) is the
    sorted-key order, ties included."""

    @settings(max_examples=150, deadline=None)
    @given(case=_tied_case(), pools=st.lists(st.integers(min_value=0, max_value=4), max_size=4))
    def test_equals_the_sorted_key_order(self, case, pools):
        wf, costs = case
        for size in pools + [None]:
            resources = None if size is None else [f"r{i}" for i in range(size + 1)]
            # a fresh call per pool: the memo holds one pool at a time
            assert heft_priority_order(wf, costs, resources) == _sorted_key_order(
                wf, costs, resources
            )

    def test_ties_break_by_topological_position(self):
        wf = Workflow("ties")
        for job in ("z", "b", "a", "m"):
            wf.add_job(job)
        wf.add_edge("m", "a", data=0.0)
        costs = HeterogeneousCostModel(wf, {job: 0.0 for job in wf.jobs}, seed=1)
        order = heft_priority_order(wf, costs, ["r1"])
        assert order == _sorted_key_order(wf, costs, ["r1"])
        assert order.index("m") < order.index("a")

    def test_foreign_workflow_matches_the_sorted_key_order(self, small_random_case):
        wf = small_random_case.workflow
        foreign = wf.subgraph(wf.jobs[: len(wf.jobs) // 2])
        costs = small_random_case.costs
        assert heft_priority_order(foreign, costs, ["r1", "r2"]) == _sorted_key_order(
            foreign, costs, ["r1", "r2"]
        )


class TestClassicExample:
    """The paper's Fig. 5(a): HEFT on the sample DAG has makespan 80."""

    def test_makespan_is_80(self, sample_workflow, sample_costs):
        schedule = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        assert schedule.makespan() == pytest.approx(80.0)

    def test_known_placements(self, sample_workflow, sample_costs):
        schedule = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        assert schedule.resource_of("n1") == "r3"
        assert schedule.assignment("n1").finish == pytest.approx(9.0)
        assert schedule.resource_of("n10") == "r2"
        assert schedule.assignment("n10").start == pytest.approx(73.0)

    def test_schedule_is_feasible(self, sample_workflow, sample_costs):
        schedule = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3"])
        assert validate_schedule(sample_workflow, sample_costs, schedule) == []

    def test_four_resources_from_start_stays_feasible(self, sample_workflow, sample_costs):
        """HEFT is a heuristic: a fourth resource shifts the averages and may
        even lengthen its schedule; the result must simply remain feasible."""
        with_r4 = HEFTScheduler().schedule(sample_workflow, sample_costs, ["r1", "r2", "r3", "r4"])
        assert with_r4.makespan() > 0
        assert validate_schedule(sample_workflow, sample_costs, with_r4) == []


class TestGeneralBehaviour:
    def test_all_jobs_scheduled(self, small_random_case):
        schedule = HEFTScheduler().schedule(
            small_random_case.workflow, small_random_case.costs, ["r1", "r2", "r3"]
        )
        assert len(schedule) == small_random_case.workflow.num_jobs

    def test_empty_resource_set_rejected(self, diamond_workflow, diamond_costs):
        with pytest.raises(ValueError):
            HEFTScheduler().schedule(diamond_workflow, diamond_costs, [])

    def test_single_resource_serialises_all_jobs(self, diamond_workflow, diamond_costs):
        schedule = HEFTScheduler().schedule(diamond_workflow, diamond_costs, ["r1"])
        total = sum(diamond_costs.computation_cost(j, "r1") for j in diamond_workflow.jobs)
        assert schedule.makespan() == pytest.approx(total)

    def test_more_resources_never_hurt_diamond(self, diamond_workflow, diamond_costs):
        one = HEFTScheduler().schedule(diamond_workflow, diamond_costs, ["r1"])
        two = HEFTScheduler().schedule(diamond_workflow, diamond_costs, ["r1", "r2"])
        assert two.makespan() <= one.makespan()

    def test_insertion_never_worse_than_append(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        resources = ["r1", "r2", "r3", "r4"]
        with_insertion = HEFTScheduler(insertion=True).schedule(wf, costs, resources)
        without = HEFTScheduler(insertion=False).schedule(wf, costs, resources)
        assert with_insertion.makespan() <= without.makespan() + 1e-9

    def test_deterministic(self, small_random_case):
        wf, costs = small_random_case.workflow, small_random_case.costs
        first = HEFTScheduler().schedule(wf, costs, ["r1", "r2", "r3"])
        second = HEFTScheduler().schedule(wf, costs, ["r1", "r2", "r3"])
        assert first.to_dict() == second.to_dict()

    def test_scheduler_wrapper(self, diamond_workflow, diamond_costs):
        scheduler = HEFTScheduler()
        schedule = scheduler.schedule(diamond_workflow, diamond_costs, ["r1", "r2"])
        assert schedule.name == "HEFT"
        assert len(schedule) == 4
