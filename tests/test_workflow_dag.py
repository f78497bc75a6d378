"""Tests for the workflow DAG model."""

import pytest

from repro.workflow.dag import Job, Workflow


class TestConstruction:
    def test_add_job_by_name(self):
        wf = Workflow("w")
        job = wf.add_job("a", operation="blast")
        assert isinstance(job, Job)
        assert wf.job("a").operation == "blast"

    def test_add_job_object(self):
        wf = Workflow("w")
        wf.add_job(Job("a", operation="x", payload={"k": 1}))
        assert wf.job("a").payload["k"] == 1

    def test_duplicate_job_raises(self):
        wf = Workflow("w")
        wf.add_job("a")
        with pytest.raises(ValueError, match="duplicate"):
            wf.add_job("a")

    def test_add_edge_unknown_source_raises(self):
        wf = Workflow("w")
        wf.add_job("a")
        with pytest.raises(KeyError):
            wf.add_edge("ghost", "a")

    def test_add_edge_unknown_destination_raises(self):
        wf = Workflow("w")
        wf.add_job("a")
        with pytest.raises(KeyError):
            wf.add_edge("a", "ghost")

    def test_self_loop_raises(self):
        wf = Workflow("w")
        wf.add_job("a")
        with pytest.raises(ValueError, match="self loop"):
            wf.add_edge("a", "a")

    def test_duplicate_edge_raises(self):
        wf = Workflow("w")
        wf.add_job("a")
        wf.add_job("b")
        wf.add_edge("a", "b")
        with pytest.raises(ValueError, match="duplicate edge"):
            wf.add_edge("a", "b")

    def test_negative_data_raises(self):
        wf = Workflow("w")
        wf.add_job("a")
        wf.add_job("b")
        with pytest.raises(ValueError):
            wf.add_edge("a", "b", data=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_data_raises_a_named_error(self, diamond_workflow, value):
        wf = Workflow("w")
        wf.add_job("a")
        wf.add_job("b")
        with pytest.raises(ValueError, match="data of edge 'a' -> 'b' must be finite"):
            wf.add_edge("a", "b", data=value)
        assert wf.num_edges == 0
        before = diamond_workflow.data("a", "b")
        with pytest.raises(ValueError, match="data of edge 'a' -> 'b' must be finite"):
            diamond_workflow.set_data("a", "b", value)
        assert diamond_workflow.data("a", "b") == before

    def test_set_data_rejects_negative_data(self, diamond_workflow):
        with pytest.raises(ValueError, match="non-negative"):
            diamond_workflow.set_data("a", "b", -1.0)

    def test_set_data_updates_both_directions(self, diamond_workflow):
        diamond_workflow.set_data("a", "b", 9.0)
        assert diamond_workflow.data("a", "b") == 9.0

    def test_set_data_missing_edge_raises(self, diamond_workflow):
        with pytest.raises(KeyError):
            diamond_workflow.set_data("b", "c", 1.0)

    def test_remove_edge(self, diamond_workflow):
        diamond_workflow.remove_edge("a", "b")
        assert "b" not in diamond_workflow.successors("a")
        assert "a" not in diamond_workflow.predecessors("b")


class TestQueries:
    def test_counts(self, diamond_workflow):
        assert diamond_workflow.num_jobs == 4
        assert diamond_workflow.num_edges == 4
        assert len(diamond_workflow) == 4

    def test_contains_and_iter(self, diamond_workflow):
        assert "a" in diamond_workflow
        assert "ghost" not in diamond_workflow
        assert set(iter(diamond_workflow)) == {"a", "b", "c", "d"}

    def test_predecessors_successors(self, diamond_workflow):
        assert set(diamond_workflow.successors("a")) == {"b", "c"}
        assert set(diamond_workflow.predecessors("d")) == {"b", "c"}

    def test_data_lookup(self, diamond_workflow):
        assert diamond_workflow.data("a", "c") == 3.0

    def test_data_missing_edge_raises(self, diamond_workflow):
        with pytest.raises(KeyError):
            diamond_workflow.data("a", "d")

    def test_entry_exit_jobs(self, diamond_workflow):
        assert diamond_workflow.entry_jobs() == ["a"]
        assert diamond_workflow.exit_jobs() == ["d"]

    def test_degrees(self, diamond_workflow):
        assert diamond_workflow.out_degree("a") == 2
        assert diamond_workflow.in_degree("d") == 2

    def test_edges_listing(self, diamond_workflow):
        edges = diamond_workflow.edges()
        assert ("a", "b", 2.0) in edges
        assert len(edges) == 4

    def test_operations_sorted_unique(self):
        wf = Workflow("w")
        wf.add_job("a", operation="z")
        wf.add_job("b", operation="a")
        wf.add_job("c", operation="z")
        assert wf.operations() == ["a", "z"]


class TestStructure:
    def test_topological_order_respects_edges(self, diamond_workflow):
        order = diamond_workflow.topological_order()
        assert order.index("a") < order.index("b")
        assert order.index("c") < order.index("d")

    def test_is_acyclic_true(self, diamond_workflow):
        assert diamond_workflow.is_acyclic()

    def test_cycle_detection(self):
        wf = Workflow("w")
        wf.add_job("a")
        wf.add_job("b")
        wf.add_edge("a", "b")
        wf.add_edge("b", "a")
        assert not wf.is_acyclic()
        with pytest.raises(ValueError):
            wf.validate()

    def test_validate_empty_raises(self):
        with pytest.raises(ValueError, match="no jobs"):
            Workflow("empty").validate()

    def test_ancestors_descendants(self, diamond_workflow):
        assert diamond_workflow.ancestors("d") == {"a", "b", "c"}
        assert diamond_workflow.descendants("a") == {"b", "c", "d"}
        assert diamond_workflow.ancestors("a") == set()

    def test_subgraph_keeps_internal_edges(self, diamond_workflow):
        sub = diamond_workflow.subgraph(["a", "b", "d"])
        assert sub.num_jobs == 3
        assert ("a", "b", 2.0) in sub.edges()
        assert ("b", "d", 1.0) in sub.edges()
        # the c path is gone
        assert all(src != "c" and dst != "c" for src, dst, _ in sub.edges())

    def test_subgraph_unknown_job_raises(self, diamond_workflow):
        with pytest.raises(KeyError):
            diamond_workflow.subgraph(["a", "ghost"])


class TestMutationLog:
    """The data-mutation log behind subgraph-scoped rank invalidation."""

    def _chain(self):
        wf = Workflow("log")
        for j in ("a", "b", "c"):
            wf.add_job(j)
        wf.add_edge("a", "b", data=4.0)
        wf.add_edge("b", "c", data=2.0)
        return wf

    def test_set_data_is_reconstructible(self):
        wf = self._chain()
        v0 = wf.version
        wf.set_data("a", "b", 9.0)
        wf.set_data("b", "c", 1.0)
        assert wf.data_edges_changed_between(v0, wf.version) == [
            ("a", "b"),
            ("b", "c"),
        ]

    def test_empty_range_is_empty_not_none(self):
        wf = self._chain()
        assert wf.data_edges_changed_between(wf.version, wf.version) == []

    def test_structural_mutation_defeats_reconstruction(self):
        wf = self._chain()
        v0 = wf.version
        wf.set_data("a", "b", 9.0)
        wf.add_job("d")
        wf.add_edge("c", "d", data=1.0)
        assert wf.data_edges_changed_between(v0, wf.version) is None
        # but a window entirely after the structural change is fine again
        v1 = wf.version
        wf.set_data("c", "d", 3.0)
        assert wf.data_edges_changed_between(v1, wf.version) == [("c", "d")]

    def test_inverted_range_is_none(self):
        wf = self._chain()
        assert wf.data_edges_changed_between(wf.version + 1, wf.version) is None

    def test_structure_version_only_bumps_on_topology(self):
        wf = self._chain()
        sv = wf.structure_version
        wf.set_data("a", "b", 7.0)
        assert wf.structure_version == sv
        wf.add_job("d")
        assert wf.structure_version == sv + 1

    def test_log_overflow_falls_back_to_none(self):
        wf = self._chain()
        v0 = wf.version
        limit = Workflow._MUTATION_LOG_LIMIT
        for i in range(2 * limit + 1):
            wf.set_data("a", "b", float(i + 1))
        # the trimmed prefix is unreconstructible ...
        assert wf.data_edges_changed_between(v0, wf.version) is None
        # ... while the retained suffix still answers exactly
        recent = wf.version - 10
        assert wf.data_edges_changed_between(recent, wf.version) == [
            ("a", "b")
        ] * 10
