"""End-to-end integration tests tying the whole system together."""

import pytest

import repro
from repro.generators.blast import generate_blast_case
from repro.generators.sample import sample_dag_cost_model, sample_dag_pool, sample_dag_workflow
from repro.generators.wien2k import generate_wien2k_case
from repro.resources.dynamics import ResourceChangeModel
from repro.scheduling.validation import validate_schedule
from repro.simulation.executor import StaticScheduleExecutor
from repro.simulation.trace import render_gantt


class TestWorkedExample:
    """The paper's Fig. 4/5 scenario end to end."""

    def test_heft_baseline_is_80(self):
        wf = sample_dag_workflow()
        costs = sample_dag_cost_model(wf)
        pool = sample_dag_pool()
        static = repro.run(wf, pool, costs=costs, mode="static").raw
        assert static.makespan == pytest.approx(80.0)

    def test_adaptive_run_is_never_worse_and_feasible(self):
        wf = sample_dag_workflow()
        costs = sample_dag_cost_model(wf)
        pool = sample_dag_pool()
        adaptive = repro.run(wf, pool, costs=costs, mode="adaptive").raw
        assert adaptive.makespan <= 80.0 + 1e-9
        assert validate_schedule(wf, costs, adaptive.final_schedule, pool=pool) == []
        # exactly one event (r4 at t=15) is evaluated before the DAG finishes
        assert adaptive.evaluated_events == 1

    def test_final_schedule_replays_identically_on_the_simulator(self):
        wf = sample_dag_workflow()
        costs = sample_dag_cost_model(wf)
        pool = sample_dag_pool()
        adaptive = repro.run(wf, pool, costs=costs, mode="adaptive").raw
        trace = StaticScheduleExecutor(wf, costs, adaptive.final_schedule, pool).run()
        assert trace.makespan() == pytest.approx(adaptive.makespan)


class TestApplicationScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        case = generate_blast_case(30, ccr=2.0, beta=0.5, omega_dag=200.0, seed=17)
        pool = ResourceChangeModel(initial_size=5, interval=300.0, fraction=0.3).build_pool()
        return case, pool

    def test_three_strategy_comparison_matches_paper_ordering(self, scenario):
        case, pool = scenario
        heft = repro.run(case.workflow, pool, costs=case.costs, mode="static").raw
        aheft = repro.run(case.workflow, pool, costs=case.costs, mode="adaptive").raw
        minmin = repro.run(case.workflow, pool, costs=case.costs, mode="dynamic").raw
        # the paper's ordering: AHEFT <= HEFT, and plan-ahead beats just-in-time
        assert aheft.makespan <= heft.makespan + 1e-9
        assert minmin.makespan >= aheft.makespan

    def test_adaptive_final_schedule_respects_join_times(self, scenario):
        case, pool = scenario
        aheft = repro.run(case.workflow, pool, costs=case.costs, mode="adaptive").raw
        assert validate_schedule(case.workflow, case.costs, aheft.final_schedule, pool=pool) == []

    def test_adaptive_schedule_replays_on_simulator(self, scenario):
        case, pool = scenario
        aheft = repro.run(case.workflow, pool, costs=case.costs, mode="adaptive").raw
        trace = StaticScheduleExecutor(case.workflow, case.costs, aheft.final_schedule, pool).run()
        assert trace.makespan() == pytest.approx(aheft.makespan, rel=1e-9)

    def test_gantt_rendering_smoke(self, scenario):
        case, pool = scenario
        aheft = repro.run(case.workflow, pool, costs=case.costs, mode="adaptive").raw
        text = render_gantt(aheft.final_schedule, width=60)
        assert "|" in text


class TestBlastVersusWien2k:
    def test_blast_benefits_at_least_as_much_as_wien2k(self):
        """Qualitative reproduction of the paper's §4.3 observation.

        With the same cost scale, pool and dynamics, the wide, well-balanced
        BLAST DAG gains at least as much from adaptive rescheduling as the
        WIEN2K DAG whose LAPW2_FERMI job throttles parallelism.
        """
        improvements = {}
        for name, generator in (("blast", generate_blast_case), ("wien2k", generate_wien2k_case)):
            case = generator(40, ccr=1.0, beta=0.5, omega_dag=200.0, seed=31)
            pool = ResourceChangeModel(initial_size=8, interval=400.0, fraction=0.15).build_pool()
            heft = repro.run(case.workflow, pool, costs=case.costs, mode="static").raw
            aheft = repro.run(case.workflow, pool, costs=case.costs, mode="adaptive").raw
            improvements[name] = (heft.makespan - aheft.makespan) / heft.makespan
        assert improvements["blast"] >= improvements["wien2k"] - 0.02
        assert improvements["blast"] > 0
