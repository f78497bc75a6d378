"""Tests for the workflow generators (random, BLAST, WIEN2K, Montage, sample)."""

import pytest

from benchmarks._seed_reference import (
    seed_assign_edge_data,
    seed_draw_base_costs,
    seed_generate_random_case,
    seed_generate_random_dag,
)
from repro.generators.blast import generate_blast_case, generate_blast_workflow
from repro.generators.costs import assign_edge_data, build_case, draw_base_costs
from repro.generators.montage import generate_montage_case, generate_montage_workflow
from repro.generators.random_dag import (
    RandomDAGParameters,
    generate_random_case,
    generate_random_dag,
)
from repro.generators.sample import (
    R4_JOIN_TIME,
    sample_dag_case,
    sample_dag_cost_model,
    sample_dag_pool,
    sample_dag_workflow,
)
from repro.generators.wien2k import generate_wien2k_case, generate_wien2k_workflow
from repro.workflow.analysis import max_parallelism
from repro.workflow.dag import Workflow

#: NaN and both infinities: shape parameters the generators must refuse
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestCostAssignment:
    def test_base_costs_within_range(self, diamond_workflow):
        base = draw_base_costs(diamond_workflow, omega_dag=50.0, seed=1)
        assert set(base) == set(diamond_workflow.jobs)
        for value in base.values():
            assert 1.0 <= value <= 100.0

    def test_per_operation_costs_shared(self):
        wf = generate_blast_workflow(5)
        base = draw_base_costs(wf, omega_dag=50.0, seed=1, per_operation=True)
        blast_costs = {base[f"blast_{i}"] for i in range(1, 6)}
        assert len(blast_costs) == 1

    def test_invalid_omega_rejected(self, diamond_workflow):
        with pytest.raises(ValueError):
            draw_base_costs(diamond_workflow, omega_dag=0.0, seed=1)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_omega_and_ccr_rejected(self, diamond_workflow, value):
        with pytest.raises(ValueError, match="omega_dag must be finite"):
            draw_base_costs(diamond_workflow, omega_dag=value, seed=1)
        with pytest.raises(ValueError, match="ccr must be finite"):
            assign_edge_data(diamond_workflow, ccr=value, omega_dag=50.0, seed=1)
        with pytest.raises(ValueError, match="omega_dag must be finite"):
            assign_edge_data(diamond_workflow, ccr=1.0, omega_dag=value, seed=1)
        with pytest.raises(ValueError, match="bandwidth must be finite"):
            assign_edge_data(diamond_workflow, ccr=1.0, omega_dag=50.0, seed=1, bandwidth=value)

    def test_edge_data_matches_ccr_target(self):
        params = RandomDAGParameters(v=60, out_degree=0.3, ccr=2.0, beta=0.5)
        wf = generate_random_dag(params, seed=9)
        assign_edge_data(wf, ccr=2.0, omega_dag=50.0, seed=9)
        mean_data = sum(d for _, _, d in wf.edges()) / wf.num_edges
        # the draw is U[0, 2*ccr*omega]; the sample mean should be near ccr*omega
        assert mean_data == pytest.approx(2.0 * 50.0, rel=0.35)

    def test_build_case_reports_ccr_close_to_target(self):
        params = RandomDAGParameters(v=60, out_degree=0.3, ccr=5.0, beta=0.5)
        case = generate_random_case(params, seed=4)
        assert case.costs.ccr() == pytest.approx(5.0, rel=0.5)

    def test_case_describe_mentions_parameters(self, small_random_case):
        assert "ccr" in small_random_case.describe()


class TestRandomDAG:
    def test_requested_job_count(self):
        for v in (20, 55, 100):
            wf = generate_random_dag(RandomDAGParameters(v=v), seed=1)
            assert wf.num_jobs == v

    def test_graph_is_connected_dag(self):
        wf = generate_random_dag(RandomDAGParameters(v=50, out_degree=0.2), seed=3)
        wf.validate()
        # every non-entry job has a predecessor, every non-exit one a successor
        for job in wf.jobs:
            assert wf.predecessors(job) or job in wf.entry_jobs()
            assert wf.successors(job) or job in wf.exit_jobs()

    def test_deterministic_for_seed(self):
        params = RandomDAGParameters(v=30)
        a = generate_random_dag(params, seed=7)
        b = generate_random_dag(params, seed=7)
        c = generate_random_dag(params, seed=8)
        assert a.edges() == b.edges()
        assert a.edges() != c.edges()

    def test_alpha_controls_shape(self):
        wide = generate_random_dag(RandomDAGParameters(v=100, alpha=2.0), seed=5)
        narrow = generate_random_dag(RandomDAGParameters(v=100, alpha=0.5), seed=5)
        assert max_parallelism(wide) > max_parallelism(narrow)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RandomDAGParameters(v=1)
        with pytest.raises(ValueError):
            RandomDAGParameters(out_degree=0.0)
        with pytest.raises(ValueError):
            RandomDAGParameters(ccr=-1.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["out_degree", "ccr", "beta", "alpha", "omega_dag"])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RandomDAGParameters(**{name: value})

    def test_instances_differ(self):
        params = RandomDAGParameters(v=30)
        a = generate_random_case(params, seed=1, instance=0)
        b = generate_random_case(params, seed=1, instance=1)
        assert a.workflow.edges() != b.workflow.edges() or a.costs.base_costs != b.costs.base_costs


class TestBlast:
    def test_job_count_formula(self):
        wf = generate_blast_workflow(8)
        assert wf.num_jobs == 2 * 8 + 2

    def test_shape(self):
        wf = generate_blast_workflow(4)
        assert wf.entry_jobs() == ["split"]
        assert wf.exit_jobs() == ["merge"]
        assert max_parallelism(wf) == 4
        assert set(wf.operations()) == {"FileBreaker", "Blast", "Parse", "Assembler"}

    def test_two_way_parallelism_is_the_paper_figure(self):
        """Fig. 6: six jobs with two-way parallelism."""
        wf = generate_blast_workflow(2)
        assert wf.num_jobs == 6

    def test_case_params_recorded(self):
        case = generate_blast_case(4, ccr=2.0, beta=0.25, seed=3)
        assert case.params["generator"] == "blast"
        assert case.params["parallelism"] == 4

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            generate_blast_workflow(0)


class TestWien2k:
    def test_job_count_formula(self):
        wf = generate_wien2k_workflow(10)
        assert wf.num_jobs == 2 * 10 + 8

    def test_fermi_is_a_synchronisation_point(self):
        wf = generate_wien2k_workflow(5)
        assert len(wf.predecessors("lapw2_fermi")) == 5
        assert len(wf.successors("lapw2_fermi")) == 5

    def test_tail_is_sequential(self):
        wf = generate_wien2k_workflow(3)
        assert wf.successors("mixer") == ["converged"]
        assert wf.exit_jobs() == ["stageout"]

    def test_case_generation(self):
        case = generate_wien2k_case(4, ccr=1.0, beta=0.5, seed=1)
        assert case.num_jobs == 16
        assert case.params["generator"] == "wien2k"

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            generate_wien2k_workflow(0)


class TestMontage:
    def test_structure(self):
        wf = generate_montage_workflow(6)
        wf.validate()
        assert wf.num_jobs == 3 * 6 + 6
        assert wf.exit_jobs() == ["mjpeg"]
        assert max_parallelism(wf) >= 6

    def test_case_generation(self):
        case = generate_montage_case(4, seed=2)
        assert case.params["generator"] == "montage"

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            generate_montage_workflow(1)


class TestSampleDag:
    def test_matches_paper_figure4(self):
        wf = sample_dag_workflow()
        assert wf.num_jobs == 10
        assert wf.num_edges == 15
        assert wf.data("n4", "n8") == 27.0
        costs = sample_dag_cost_model(wf)
        assert costs.computation_cost("n9", "r4") == 13.0

    def test_pool_has_r4_joining_at_15(self):
        pool = sample_dag_pool()
        assert pool.available_at(0.0) == ["r1", "r2", "r3"]
        assert pool.resource("r4").available_from == R4_JOIN_TIME

    def test_case_bundle(self):
        case = sample_dag_case()
        assert case.num_jobs == 10
        assert case.params["generator"] == "sample-fig4"


def _one_job_workflow():
    workflow = Workflow("single")
    workflow.add_job("only", operation="solo")
    return workflow


#: builders of fresh, unpriced DAGs (called twice: once per pricing path);
#: every DAG has exit jobs, i.e. jobs with no successors
UNPRICED = {
    "random": lambda: generate_random_dag(RandomDAGParameters(v=60, out_degree=0.3), seed=5),
    "blast": lambda: generate_blast_workflow(7),
    "montage": lambda: generate_montage_workflow(6),
    "wien2k": lambda: generate_wien2k_workflow(5),
    "one_job": _one_job_workflow,
}


def _structure(workflow):
    index = workflow.structure()
    return workflow.edges(), index.topo, index.succ, index.pred


class TestBatchedPricing:
    """The one-pass draws equal the frozen per-stream ones bit for bit."""

    @pytest.mark.parametrize("per_operation", [False, True])
    @pytest.mark.parametrize("kind", sorted(UNPRICED))
    def test_base_costs_and_edge_data_equal_the_scalar_oracle(self, kind, per_operation):
        live, oracle = UNPRICED[kind](), UNPRICED[kind]()
        for seed in (0, 11):
            assert draw_base_costs(
                live, omega_dag=40.0, seed=seed, per_operation=per_operation
            ) == seed_draw_base_costs(
                oracle, omega_dag=40.0, seed=seed, per_operation=per_operation
            )
            pricing = dict(ccr=2.0, omega_dag=40.0, seed=seed, bandwidth=1.5,
                           per_operation=per_operation)
            assign_edge_data(live, **pricing)
            seed_assign_edge_data(oracle, **pricing)
            assert _structure(live) == _structure(oracle)

    def test_edge_data_is_one_version_bump(self):
        workflow = UNPRICED["random"]()
        version, structure = workflow.version, workflow.structure()
        assign_edge_data(workflow, ccr=1.0, omega_dag=50.0, seed=3)
        assert workflow.version == version + 1
        assert workflow.structure() is structure

    def test_one_job_workflow_has_nothing_to_assign(self):
        workflow = _one_job_workflow()
        version = workflow.version
        assign_edge_data(workflow, ccr=1.0, omega_dag=50.0, seed=3)
        assert workflow.version == version
        base = draw_base_costs(workflow, omega_dag=50.0, seed=3)
        assert list(base) == ["only"] and base["only"] >= 1.0


class TestBulkRandomDAG:
    """The bulk random DAG build equals the one-edge-at-a-time oracle."""

    @pytest.mark.parametrize(
        "params, seed",
        [
            (RandomDAGParameters(v=2), 0),
            (RandomDAGParameters(v=12, out_degree=1.0), 3),
            (RandomDAGParameters(v=200, out_degree=0.1, alpha=0.5), 7),
            (RandomDAGParameters(v=300, out_degree=0.05, alpha=2.0), 41),
        ],
    )
    def test_case_equals_the_scalar_build(self, params, seed):
        live = generate_random_case(params, seed=seed, instance=2)
        oracle = seed_generate_random_case(params, seed=seed, instance=2)
        assert live.workflow.jobs == oracle.workflow.jobs
        assert [live.workflow.job(j).operation for j in live.workflow.jobs] == [
            oracle.workflow.job(j).operation for j in oracle.workflow.jobs
        ]
        assert _structure(live.workflow) == _structure(oracle.workflow)
        assert live.costs.base_costs == oracle.costs.base_costs
        for job in live.workflow.jobs:
            assert live.costs.computation_cost(job, "r1") == oracle.costs.computation_cost(
                job, "r1"
            )

    def test_dag_is_one_structural_bump_for_its_edges(self):
        params = RandomDAGParameters(v=40, out_degree=0.3)
        live = generate_random_dag(params, seed=9)
        oracle = seed_generate_random_dag(params, seed=9)
        assert _structure(live) == _structure(oracle)
        # one bump per job plus one for the whole edge batch
        assert live.structure_version == live.num_jobs + 1
        assert oracle.structure_version == oracle.num_jobs + oracle.num_edges
