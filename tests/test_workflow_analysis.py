"""Tests for DAG analyses: ranks, critical path, parallelism."""

import pytest

from repro import registry
from repro.generators.sample import sample_dag_cost_model, sample_dag_workflow
from repro.workflow.analysis import (
    average_parallelism,
    critical_path,
    critical_path_length,
    dag_levels,
    downward_ranks,
    max_parallelism,
    parallelism_profile,
    upward_ranks,
)
from repro.workflow.costs import UniformCostModel


class TestUpwardRanks:
    def test_exit_rank_equals_average_cost(self, diamond_workflow, diamond_costs):
        ranks = upward_ranks(diamond_workflow, diamond_costs)
        assert ranks["d"] == pytest.approx(
            diamond_costs.average_computation_cost("d")
        )

    def test_rank_monotone_along_edges(self, diamond_workflow, diamond_costs):
        ranks = upward_ranks(diamond_workflow, diamond_costs)
        for src, dst, _ in diamond_workflow.edges():
            assert ranks[src] > ranks[dst]

    def test_classic_sample_rank_order(self):
        """On the classic HEFT example, n1 has the highest rank and n10 the lowest."""
        wf = sample_dag_workflow()
        costs = sample_dag_cost_model(wf)
        ranks = upward_ranks(wf, costs, ["r1", "r2", "r3"])
        ordering = sorted(ranks, key=ranks.get, reverse=True)
        assert ordering[0] == "n1"
        assert ordering[-1] == "n10"
        # the classic value for the entry node with 3 resources is 108
        assert ranks["n1"] == pytest.approx(108.0, abs=0.5)

    def test_restricting_resources_changes_averages(self, diamond_workflow, diamond_costs):
        all_ranks = upward_ranks(diamond_workflow, diamond_costs)
        r1_ranks = upward_ranks(diamond_workflow, diamond_costs, ["r1"])
        assert all_ranks["a"] != r1_ranks["a"]


class TestDownwardRanks:
    def test_entry_rank_zero(self, diamond_workflow, diamond_costs):
        ranks = downward_ranks(diamond_workflow, diamond_costs)
        assert ranks["a"] == 0.0

    def test_monotone_along_edges(self, diamond_workflow, diamond_costs):
        ranks = downward_ranks(diamond_workflow, diamond_costs)
        for src, dst, _ in diamond_workflow.edges():
            assert ranks[dst] > ranks[src]


class TestCriticalPath:
    def test_path_starts_at_entry_ends_at_exit(self, diamond_workflow, diamond_costs):
        path = critical_path(diamond_workflow, diamond_costs)
        assert path[0] == "a"
        assert path[-1] == "d"

    def test_chooses_heavier_branch(self, diamond_workflow, diamond_costs):
        # branch through c has comp 4.5 avg + comm 3 and 4, heavier than b
        path = critical_path(diamond_workflow, diamond_costs)
        assert "c" in path

    def test_length_at_least_sum_of_path_nodes(self, diamond_workflow, diamond_costs):
        length = critical_path_length(diamond_workflow, diamond_costs)
        assert length > 0
        no_comm = critical_path_length(
            diamond_workflow, diamond_costs, include_communication=False
        )
        assert length >= no_comm

    def test_minimum_cost_variant_is_lower_bound(self, diamond_workflow, diamond_costs):
        resources = ["r1", "r2"]
        minimal = critical_path_length(
            diamond_workflow,
            diamond_costs,
            resources,
            include_communication=False,
            minimum_costs=True,
        )
        average = critical_path_length(
            diamond_workflow, diamond_costs, resources, include_communication=False
        )
        assert minimal <= average


class TestParallelism:
    def test_levels(self, diamond_workflow):
        levels = dag_levels(diamond_workflow)
        assert levels == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_profile(self, diamond_workflow):
        assert parallelism_profile(diamond_workflow) == [1, 2, 1]

    def test_max_and_average(self, diamond_workflow):
        assert max_parallelism(diamond_workflow) == 2
        assert average_parallelism(diamond_workflow) == pytest.approx(4 / 3)

    def test_chain_has_width_one(self, chain_workflow):
        assert max_parallelism(chain_workflow) == 1

    def test_blast_width_matches_parallelism(self):
        from repro.generators.blast import generate_blast_workflow

        wf = generate_blast_workflow(7)
        assert max_parallelism(wf) == 7

    def test_wien2k_fermi_level_has_width_one(self):
        from repro.generators.wien2k import generate_wien2k_workflow

        wf = generate_wien2k_workflow(6)
        profile = parallelism_profile(wf)
        # widths: 1 (stagein), 1 (lapw0), 6 (lapw1), 1 (fermi), 6 (lapw2), then the tail
        assert profile[2] == 6
        assert profile[3] == 1
        assert profile[4] == 6


class TestIncrementalRankCache:
    """Dirty-cone rank maintenance must be invisible to callers.

    When only edge data volumes changed between two ``upward_ranks`` calls,
    the cached rank vector is patched in place by re-ranking the cone
    upstream of the changed edges.  The patched ranks must be bit-identical
    to a cold full recompute in every case.
    """

    def _random_case(self, v=60, seed=0):
        from repro.generators.random_dag import (
            RandomDAGParameters,
            generate_random_case,
        )

        params = RandomDAGParameters(
            v=v, out_degree=0.2, ccr=1.0, beta=0.5, omega_dag=300.0
        )
        return generate_random_case(params, seed=seed)

    def _cold_ranks(self, workflow, costs, resources):
        from repro.workflow.analysis import _RANK_CACHE

        _RANK_CACHE.pop(costs, None)
        return upward_ranks(workflow, costs, resources)

    def test_incremental_equals_full_after_data_edits(self):
        from repro.workflow.analysis import _RANK_CACHE

        resources = [f"r{i + 1}" for i in range(8)]
        for seed in (0, 2, 5):
            case = self._random_case(seed=seed)
            wf, costs = case.workflow, case.costs
            upward_ranks(wf, costs, resources)  # prime the cache
            cached = _RANK_CACHE[costs]["rank"]
            edges = wf.edges()
            for k, (src, dst, data) in enumerate(edges):
                if k % 7 == 0:
                    wf.set_data(src, dst, data * 3.0 + 1.0)
            incremental = upward_ranks(wf, costs, resources)
            # the cached storage was patched, not rebuilt
            assert _RANK_CACHE[costs]["rank"] is cached
            full = self._cold_ranks(wf, costs, resources)
            assert incremental == full

    def test_repeated_edits_stay_exact(self):
        resources = [f"r{i + 1}" for i in range(5)]
        case = self._random_case(v=40, seed=3)
        wf, costs = case.workflow, case.costs
        edges = wf.edges()
        upward_ranks(wf, costs, resources)
        for round_no in range(4):
            for k, (src, dst, data) in enumerate(edges):
                if k % 5 == round_no % 5:
                    wf.set_data(src, dst, data * (0.5 + round_no))
            incremental = upward_ranks(wf, costs, resources)
            assert incremental == self._cold_ranks(wf, costs, resources)
            upward_ranks(wf, costs, resources)  # re-prime after cold pop

    def test_resources_change_misses_the_cache(self):
        case = self._random_case(v=30, seed=1)
        wf, costs = case.workflow, case.costs
        pool_a = [f"r{i + 1}" for i in range(6)]
        pool_b = pool_a + ["g1", "g2"]
        ranks_a = upward_ranks(wf, costs, pool_a)
        ranks_b = upward_ranks(wf, costs, pool_b)
        assert ranks_a != ranks_b
        assert ranks_b == self._cold_ranks(wf, costs, pool_b)
        assert upward_ranks(wf, costs, None) == self._cold_ranks(wf, costs, None)

    def test_structural_mutation_falls_back_to_full(self):
        case = self._random_case(v=25, seed=4)
        wf, costs = case.workflow, case.costs
        resources = ["r1", "r2", "r3"]
        upward_ranks(wf, costs, resources)
        entry = wf.entry_jobs()[0]
        wf.add_job("straggler")
        wf.add_edge(entry, "straggler", data=5.0)
        costs.base_costs["straggler"] = 80.0
        costs.invalidate_cache()
        after = upward_ranks(wf, costs, resources)
        assert "straggler" in after
        assert after == self._cold_ranks(wf, costs, resources)

    def test_returned_dicts_are_fresh_objects(self):
        case = self._random_case(v=20, seed=6)
        wf, costs = case.workflow, case.costs
        resources = ["r1", "r2"]
        first = upward_ranks(wf, costs, resources)
        first[next(iter(first))] = -1.0  # caller mutates its copy
        second = upward_ranks(wf, costs, resources)
        assert second == self._cold_ranks(wf, costs, resources)

    def test_priority_order_tracks_data_edits(self):
        from repro.scheduling.heft import heft_priority_order

        case = self._random_case(v=35, seed=7)
        wf, costs = case.workflow, case.costs
        resources = [f"r{i + 1}" for i in range(4)]
        heft_priority_order(wf, costs, resources)
        for src, dst, data in wf.edges()[::4]:
            wf.set_data(src, dst, data * 10.0 + 2.0)
        ranks = self._cold_ranks(wf, costs, resources)
        order = heft_priority_order(wf, costs, resources)
        values = [ranks[j] for j in order]
        assert values == sorted(values, reverse=True)


class TestRankLevelCache:
    """The upward-rank level partition is cached per structure snapshot.

    It depends only on the DAG's jobs and edges, so replans under fresh
    cost models (uncertain mode builds a new effective model on every
    trigger) and edge-data refreshes reuse it; adding an edge rebuilds it.
    """

    def _count_level_builds(self, monkeypatch):
        from repro.workflow import analysis

        builds = []
        build = analysis._reverse_level_batches

        def counting_build(structure):
            builds.append(structure)
            return build(structure)

        monkeypatch.setattr(analysis, "_reverse_level_batches", counting_build)
        return builds

    def _count_rankings(self, monkeypatch):
        from repro.scheduling import heft
        from repro.workflow import analysis

        rankings = []
        rank = analysis.upward_ranks

        def counting_ranks(*args, **kwargs):
            rankings.append(args[1])
            return rank(*args, **kwargs)

        monkeypatch.setattr(heft, "upward_ranks", counting_ranks)
        return rankings

    def test_uncertain_mode_run_builds_levels_once(self, make_case, build_scenario, monkeypatch):
        import repro

        builds = self._count_level_builds(monkeypatch)
        rankings = self._count_rankings(monkeypatch)
        case = make_case(v=40, seed=2)
        run = build_scenario("churn", initial_size=4, seed=5)
        result = repro.run(
            case.workflow,
            run.pool,
            costs=case.costs,
            mode="adaptive",
            perf_profile=run.profile,
            error_model=registry.make("error_model", "gaussian", magnitude=0.3, seed=9),
        )
        # the replans ranked under many distinct effective models ...
        assert result.raw.evaluated_events > 3
        assert len({id(model) for model in rankings}) > 3
        # ... on one level partition
        assert len(builds) == 1
        assert builds[0] is case.workflow.structure()

    def test_add_edge_rebuilds_and_set_data_keeps(self, make_case, monkeypatch):
        from benchmarks._seed_reference import seed_upward_ranks

        builds = self._count_level_builds(monkeypatch)
        case = make_case(v=30, seed=4)
        wf, costs = case.workflow, case.costs
        resources = ["r1", "r2", "r3"]

        def fresh_costs():
            # a new view each time, as an uncertain-mode trigger builds one
            from repro.scenarios.base import ScaledCostModel

            return ScaledCostModel(costs, {"r2": 1.5})

        for _ in range(3):
            model = fresh_costs()
            assert upward_ranks(wf, model, resources) == seed_upward_ranks(wf, model, resources)
        assert len(builds) == 1

        for src, dst, data in wf.edges()[::3]:
            wf.set_data(src, dst, data * 2.0 + 1.0)
        model = fresh_costs()
        assert upward_ranks(wf, model, resources) == seed_upward_ranks(wf, model, resources)
        assert len(builds) == 1

        order = wf.topological_order()
        dst = next(job for job in reversed(order) if job not in wf.successors(order[0]))
        wf.add_edge(order[0], dst, data=7.0)
        model = fresh_costs()
        assert upward_ranks(wf, model, resources) == seed_upward_ranks(wf, model, resources)
        assert len(builds) == 2
        assert builds[-1] is wf.structure()
