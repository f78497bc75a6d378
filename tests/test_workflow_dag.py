"""Tests for the workflow DAG model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestVersions:
    def test_structure_version_only_bumps_on_topology(self):
        wf = Workflow("versions")
        for j in ("a", "b", "c"):
            wf.add_job(j)
        wf.add_edge("a", "b", data=4.0)
        sv = wf.structure_version
        wf.set_data("a", "b", 7.0)
        assert wf.structure_version == sv
        wf.add_job("d")
        assert wf.structure_version == sv + 1


def _jobs(names="abcde"):
    wf = Workflow("bulk")
    for name in names:
        wf.add_job(name)
    return wf


def _state(wf):
    structure = wf.structure()
    return (
        wf.edges(),
        structure.topo,
        structure.succ,
        structure.pred,
        wf.version,
        wf.structure_version,
    )


class TestAddEdges:
    """``add_edges`` is ``add_edge`` per triple, in order, as one mutation."""

    EDGES = [("c", "e", 1.0), ("a", "c", 2.0), ("b", "c", 0.5), ("a", "b", 3.0),
             ("d", "e", 0.0), ("a", "d", 4.0)]

    def test_matches_one_edge_at_a_time(self):
        one, bulk = _jobs(), _jobs()
        for src, dst, data in self.EDGES:
            one.add_edge(src, dst, data)
        bulk.add_edges(self.EDGES)
        assert bulk.edges() == one.edges()
        assert bulk.structure().succ == one.structure().succ
        # the order each job's predecessors were added in is kept
        assert bulk.structure().pred == one.structure().pred
        assert bulk.structure().topo == one.structure().topo

    def test_one_version_bump(self):
        wf = _jobs()
        version, structure_version = wf.version, wf.structure_version
        wf.add_edges(self.EDGES)
        assert (wf.version, wf.structure_version) == (version + 1, structure_version + 1)

    def test_empty_batch_changes_nothing(self):
        wf = _jobs()
        before = _state(wf)
        wf.add_edges([])
        assert _state(wf) == before

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (("ghost", "a", 1.0), KeyError, "unknown source"),
            (("a", "ghost", 1.0), KeyError, "unknown destination"),
            (("b", "b", 1.0), ValueError, "self loop"),
            (("a", "b", 1.0), ValueError, "duplicate"),  # already present
            (("c", "e", 9.0), ValueError, "duplicate"),  # earlier in the batch
            (("d", "b", -1.0), ValueError, "non-negative"),
            (("d", "b", math.nan), ValueError, "finite"),
            (("d", "b", math.inf), ValueError, "finite"),
        ],
    )
    def test_rejected_batch_raises_like_add_edge_and_changes_nothing(
        self, bad, error, match
    ):
        wf = _jobs()
        wf.add_edge("a", "b", 1.0)
        single = _jobs()
        single.add_edge("a", "b", 1.0)
        single.add_edge("c", "e", 1.0)
        with pytest.raises(error, match=match):
            single.add_edge(*bad)
        before = _state(wf)
        with pytest.raises(error, match=match):
            wf.add_edges([("c", "e", 1.0), ("a", "c", 2.0), bad, ("b", "d", 1.0)])
        assert _state(wf) == before
        # the workflow still takes the valid edges afterwards
        wf.add_edges([("c", "e", 1.0), ("a", "c", 2.0)])
        assert wf.num_edges == 3


class TestSetDataMany:
    def test_matches_set_data_with_one_version_bump(self):
        one, bulk = _jobs(), _jobs()
        for wf in (one, bulk):
            wf.add_edges(TestAddEdges.EDGES)
        updates = [("a", "b", 7.0), ("d", "e", 1.5), ("a", "b", 8.0)]
        for src, dst, data in updates:
            one.set_data(src, dst, data)
        version = bulk.version
        structure = bulk.structure()
        bulk.set_data_many(updates)
        assert bulk.edges() == one.edges()
        assert bulk.version == version + 1
        assert bulk.structure() is structure

    @pytest.mark.parametrize(
        "bad, error",
        [(("b", "a", 1.0), KeyError), (("ghost", "a", 1.0), KeyError),
         (("a", "b", -2.0), ValueError), (("a", "b", math.nan), ValueError)],
    )
    def test_rejected_batch_changes_nothing(self, bad, error):
        wf = _jobs()
        wf.add_edges(TestAddEdges.EDGES)
        before = _state(wf)
        with pytest.raises(error):
            wf.set_data_many([("a", "c", 9.0), bad])
        assert _state(wf) == before

    def test_empty_batch_changes_nothing(self):
        wf = _jobs()
        wf.add_edges(TestAddEdges.EDGES)
        before = _state(wf)
        wf.set_data_many([])
        assert _state(wf) == before


_NAMES = "abcd"
_edge = st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES))
_volume = st.sampled_from([0.0, 1.0, 2.5, -1.0])
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_job"), st.sampled_from(_NAMES + "xy")),
        st.tuples(st.just("add_edge"), _edge, _volume),
        st.tuples(st.just("add_edges"), st.lists(st.tuples(_edge, _volume), max_size=3)),
        st.tuples(st.just("remove_edge"), _edge),
        st.tuples(st.just("set_data"), _edge, _volume),
        st.tuples(st.just("set_data_many"), st.lists(st.tuples(_edge, _volume), max_size=3)),
    ),
    max_size=30,
)


class TestVersionHistory:
    """Every accepted mutation bumps ``version`` once; a rejected call or an
    empty batch changes nothing; only job and edge changes bump
    ``structure_version``."""

    @staticmethod
    def _apply(wf, op):
        kind = op[0]
        if kind == "add_job":
            wf.add_job(op[1])
        elif kind == "add_edge":
            wf.add_edge(*op[1], op[2])
        elif kind == "add_edges":
            wf.add_edges([(src, dst, data) for (src, dst), data in op[1]])
        elif kind == "remove_edge":
            wf.remove_edge(*op[1])
        elif kind == "set_data":
            wf.set_data(*op[1], op[2])
        else:
            wf.set_data_many([(src, dst, data) for (src, dst), data in op[1]])

    @settings(max_examples=200, deadline=None)
    @given(_ops)
    def test_one_bump_per_accepted_mutation(self, ops):
        wf = _jobs(_NAMES)
        for op in ops:
            version, structure_version = wf.version, wf.structure_version
            try:
                self._apply(wf, op)
            except (KeyError, ValueError):
                # a rejected call changes nothing
                assert (wf.version, wf.structure_version) == (version, structure_version)
                continue
            if wf.version == version:
                continue  # an empty batch
            assert wf.version == version + 1
            structural = op[0] not in ("set_data", "set_data_many")
            assert wf.structure_version == structure_version + structural
