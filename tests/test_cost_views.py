"""Dense cost views of the computation-transforming wrappers vs their scalars.

The Planner prices ``w[i][j]`` through memoised dense views
(``computation_matrix``, ``average_computation_costs``) while repairs and
the truth replay query single pairs.  Both must give the very same floats,
so these tests compare them bit for bit (``np.array_equal``, never
``approx``) for the Predictor's ratio view, a performance profile over it
and the absolute view.  The histories cover every branch of the ratio pass:
self-contained records, legacy same-workflow records, foreign job ids,
operation mismatches, near-zero estimates and a resource whose learned
ratio is exactly 1.0.

The model keeps each price once: the per-resource priced columns persist,
every pool-keyed view holds only the pool it was last built for, and the
scalar queries read the priced columns instead of a per-pair mirror.  The
last tests pin that storage rule and that it changes no float.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core.history import PerformanceHistoryRepository, PerformanceRecord
from repro.core.predictor import RatioAdjustedCostModel
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.resources.dynamics import ResourceChangeModel
from repro.scenarios.base import ScaledCostModel, ScenarioError
from repro.scheduling.heft import heft_priority_order
from repro.workflow.costs import (
    POOL_KEYED_VIEWS,
    GaussianErrorModel,
    HeterogeneousCostModel,
    PerturbedCostModel,
    _held_prices,
)

CASE = generate_random_case(
    RandomDAGParameters(v=14, out_degree=0.25, ccr=1.0, beta=0.5), seed=3
)
JOBS = list(CASE.workflow.jobs)
#: a job whose prior prices 0.0 everywhere: legacy records of it are skipped
ZERO_JOB = JOBS[-1]
#: r4's only records observe their estimate exactly (ratio 1.0); r5 has none
POOL = ["r3", "r1", "r5", "r2", "r4", "r1"]
PROFILE = {"r1": 2.0, "r3": 0.5}

KINDS = ("self", "legacy", "foreign", "mismatch", "zero_prior", "tiny_estimate", "no_job")

record_specs = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(["r1", "r2", "r3"]),
        st.integers(min_value=0, max_value=len(JOBS) - 2),
        st.sampled_from([0.0, 0.5, 1.0, 1.37, 2.5]),
        st.floats(min_value=0.1, max_value=100.0),
    ),
    max_size=12,
)
EVERY_BRANCH = [
    (kind, rid, index, scale, 10.0)
    for index, (kind, rid, scale) in enumerate(
        [
            ("self", "r1", 1.37),
            ("legacy", "r1", 0.5),
            ("foreign", "r1", 2.5),
            ("mismatch", "r2", 2.5),
            ("zero_prior", "r2", 2.5),
            ("tiny_estimate", "r2", 1.37),
            ("no_job", "r3", 2.5),
            ("self", "r3", 0.0),
            ("legacy", "r3", 1.0),
        ]
    )
]


def _prior() -> HeterogeneousCostModel:
    """A fresh prior (empty caches) over the shared workflow."""
    base_costs = dict(CASE.costs.base_costs)
    base_costs[ZERO_JOB] = 0.0
    return HeterogeneousCostModel(CASE.workflow, base_costs, beta=0.5, seed=11)


def _history(specs) -> PerformanceHistoryRepository:
    history = PerformanceHistoryRepository()
    for kind, rid, index, scale, estimate in specs:
        job = JOBS[index]
        operation = CASE.workflow.job(job).operation
        if kind == "self":
            record = PerformanceRecord(operation, rid, scale * estimate, job, estimated=estimate)
        elif kind == "legacy":
            record = PerformanceRecord(operation, rid, scale * estimate, job)
        elif kind == "foreign":
            record = PerformanceRecord(operation, rid, scale * estimate, f"{job}-foreign")
        elif kind == "mismatch":
            record = PerformanceRecord(f"{operation}-other", rid, scale * estimate, job)
        elif kind == "zero_prior":
            zero_operation = CASE.workflow.job(ZERO_JOB).operation
            record = PerformanceRecord(zero_operation, rid, scale * estimate, ZERO_JOB)
        elif kind == "tiny_estimate":
            record = PerformanceRecord(operation, rid, scale * estimate, job, estimated=1e-13)
        else:
            record = PerformanceRecord(operation, rid, scale * estimate)
        history.record(record)
    for estimate in (3.0, 0.7):
        history.record(PerformanceRecord("exact", "r4", estimate, JOBS[0], estimated=estimate))
    return history


def _assert_views_match_scalars(model, prior) -> None:
    structure = model.workflow.structure()
    jobs = structure.jobs
    # views first, on fresh caches: the batched path must not lean on
    # pairs the scalar queries priced before it
    matrix = model.computation_matrix(POOL)
    averages = model.average_computation_costs(POOL)
    intrinsic = model.average_computation_costs()
    scalar = np.array([[model.computation_cost(job, rid) for rid in POOL] for job in jobs])
    assert np.array_equal(matrix, scalar)
    assert np.array_equal(
        averages, np.array([model.average_computation_cost(job, POOL) for job in jobs])
    )
    assert np.array_equal(
        intrinsic, np.array([model.average_computation_cost(job) for job in jobs])
    )
    edges = np.array(
        [prior.average_communication_cost(src, dst) for src, dst, _ in model.workflow.edges()]
    )
    assert np.array_equal(model.edge_communication_costs(), edges)
    assert np.array_equal(model.edge_communication_costs(), prior.edge_communication_costs())
    assert model.predecessor_communications() == prior.predecessor_communications()


class TestViewsMatchScalars:
    @pytest.mark.parametrize("prior_strength", [0.0, 2.0])
    @pytest.mark.parametrize("blend", [0.0, 0.3, 1.0])
    @settings(max_examples=12, deadline=None)
    @given(specs=record_specs)
    @example(specs=EVERY_BRANCH)
    def test_ratio_and_profiled_views(self, blend, prior_strength, specs):
        history = _history(specs)
        prior = _prior()
        ratio = RatioAdjustedCostModel(
            prior, history, blend=blend, prior_strength=prior_strength
        )
        assert ratio.resource_ratio("r4") == 1.0
        assert "r4" not in ratio.factors
        _assert_views_match_scalars(ratio, prior)

        prior = _prior()
        learned = RatioAdjustedCostModel(
            prior, history, blend=blend, prior_strength=prior_strength
        )
        _assert_views_match_scalars(ScaledCostModel(learned, PROFILE), prior)

    def test_every_branch_example_exercises_the_ratio_branches(self):
        model = RatioAdjustedCostModel(_prior(), _history(EVERY_BRANCH), prior_strength=0.0)
        prior = _prior()

        def legacy(index: int, rid: str, duration: float) -> float:
            return duration / prior.computation_cost(JOBS[index], rid)

        # r1: the self-contained 1.37 and the legacy record; the foreign
        # record is skipped
        assert model.resource_ratio("r1") == pytest.approx((1.37 + legacy(1, "r1", 5.0)) / 2)
        # r2: the mismatch and the zero-prior record are skipped; the tiny
        # estimate falls back to the legacy division
        assert model.resource_ratio("r2") == pytest.approx(legacy(5, "r2", 13.7))
        # r3: the unlabelled record is skipped, the zero observation counts
        assert model.resource_ratio("r3") == pytest.approx((0.0 + legacy(8, "r3", 10.0)) / 2)
        assert model.resource_ratio("r4") == 1.0
        assert model.resource_ratio("r5") == 1.0


class TestRatioSnapshot:
    def test_model_keeps_its_factors_when_the_history_grows(self):
        history = _history(EVERY_BRANCH)
        model = RatioAdjustedCostModel(_prior(), history)
        ratios = {rid: model.resource_ratio(rid) for rid in ("r1", "r2", "r3")}
        matrix = model.computation_matrix(POOL).copy()
        scalar = model.computation_cost(JOBS[0], "r1")
        for _ in range(5):
            history.record(PerformanceRecord("late", "r1", 50.0, JOBS[0], estimated=1.0))
        assert {rid: model.resource_ratio(rid) for rid in ratios} == ratios
        assert np.array_equal(model.computation_matrix(POOL), matrix)
        assert model.computation_cost(JOBS[0], "r1") == scalar
        fresh = RatioAdjustedCostModel(_prior(), history)
        assert fresh.resource_ratio("r1") > ratios["r1"]


class TestKeptRatios:
    """The repository keeps each resource's self-contained ratios as recorded.

    The model sums those lists instead of walking the whole history, and
    walks only while a legacy record (no stored estimate) is present.
    """

    @settings(max_examples=40, deadline=None)
    @given(specs=record_specs)
    @example(specs=EVERY_BRANCH)
    @example(specs=[spec for spec in EVERY_BRANCH if spec[0] == "self"])
    def test_kept_lists_equal_the_walk(self, specs):
        history = _history(specs)
        prior = _prior()
        kept = history.self_contained_ratios()
        walked = RatioAdjustedCostModel(prior, history)._walk()
        if all(kind == "self" for kind, *_ in specs):
            assert kept == walked
            assert list(kept) == list(walked)
        else:
            assert kept is None

    def test_a_self_contained_history_is_not_walked(self, monkeypatch):
        history = _history([spec for spec in EVERY_BRANCH if spec[0] == "self"])
        walked = RatioAdjustedCostModel(_prior(), history)

        def no_walk(self):
            raise AssertionError("walked a history of self-contained records")

        monkeypatch.setattr(RatioAdjustedCostModel, "_walk", no_walk)
        kept = RatioAdjustedCostModel(_prior(), history)
        assert kept.factors == walked.factors
        assert np.array_equal(kept.computation_matrix(POOL), walked.computation_matrix(POOL))

    def test_clear_resets_the_kept_ratios(self):
        history = _history(EVERY_BRANCH)
        assert history.self_contained_ratios() is None
        history.clear()
        assert history.self_contained_ratios() == {}
        history.record(PerformanceRecord("op", "r2", 3.0, JOBS[0], estimated=2.0))
        assert history.self_contained_ratios() == {"r2": [1.5]}


class TestZeroRatio:
    @pytest.mark.parametrize("blend", [0.3, 1.0])
    def test_zero_duration_observations_price_without_raising(self, blend):
        history = PerformanceHistoryRepository()
        for job in JOBS[:3]:
            history.record(PerformanceRecord("op", "r1", 0.0, job, estimated=4.0))
        prior = _prior()
        model = RatioAdjustedCostModel(prior, history, blend=blend, prior_strength=0.0)
        assert model.resource_ratio("r1") == 0.0
        column = model.computation_matrix(["r1"])[:, 0]
        expected = prior.computation_matrix(["r1"])[:, 0] * (1.0 - blend)
        assert np.array_equal(column, expected)
        if blend == 1.0:
            assert (column == 0.0).all()
        assert model.computation_cost(JOBS[0], "r1") == column[0]

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_caller_supplied_non_positive_factor_is_rejected(self, factor):
        with pytest.raises(ScenarioError):
            ScaledCostModel(_prior(), {"r1": factor})


# ----------------------------------------------------------------------
# one copy of each price
# ----------------------------------------------------------------------
POOL_A = ["r1", "r2", "r3"]
POOL_B = ["r1", "r2", "r3", "r4", "r5"]


def _views(model, pool):
    """Copies of every pool-keyed view of ``model`` on ``pool``."""
    return (
        model.computation_matrix(pool).copy(),
        [list(row) for row in model.computation_rows(pool)],
        model.average_computation_costs(pool).copy(),
        heft_priority_order(model.workflow, model, pool),
    )


def _assert_same_views(left, right) -> None:
    matrix, rows, averages, order = left
    assert np.array_equal(matrix, right[0])
    assert rows == right[1]
    assert np.array_equal(averages, right[2])
    assert order == right[3]


class TestOneViewPerPool:
    def test_growth_only_adaptive_run_holds_one_view_per_kind(self):
        case = generate_random_case(
            RandomDAGParameters(v=300, out_degree=20 / 300, ccr=1.0, beta=0.5), seed=1
        )
        pool = ResourceChangeModel(6, interval=120, fraction=0.3, max_events=5).build_pool()
        result = repro.run(case.workflow, pool, costs=case.costs, mode="adaptive")
        assert result.makespan > 0
        resources = pool.all_resource_ids()
        assert len(resources) > 6, "the pool never grew"
        held, pairs = _held_prices(case.costs)
        assert sorted(key[0] for key in held) == sorted(POOL_KEYED_VIEWS)
        # all of them on one pool: the last one the Planner replanned on
        assert len({key[1] for key in held}) == 1
        assert pairs == 0, "the column draws were mirrored per pair"
        # the structural store: one priced column per resource ever seen,
        # and the four structural views of the last pool (the ascending-cost
        # order is built by the insertion scan of AHEFT's placement)
        store = case.costs._structural_cache
        assert sorted(store["columns"]) == sorted(resources)
        assert sorted(store["entries"]) == ["wavg", "wmat", "worder", "wrows"]

    def test_pools_a_b_a_match_a_fresh_model(self):
        model = _prior()
        first_a = _views(model, POOL_A)
        views_b = _views(model, POOL_B)
        again_a = _views(model, POOL_A)
        _assert_same_views(first_a, _views(_prior(), POOL_A))
        _assert_same_views(views_b, _views(_prior(), POOL_B))
        _assert_same_views(again_a, first_a)
        assert {key[1] for key in _held_prices(model)[0]} == {tuple(POOL_A)}

    def test_invalidate_cache_reprices(self):
        model = _prior()
        before = model.computation_matrix(POOL_B).copy()
        model.computation_cost(JOBS[0], "r9")  # one pair drawn on its own
        job = JOBS[0]
        model.base_costs[job] *= 2.0
        model.invalidate_cache()
        assert _held_prices(model) == ([], 0)
        after = model.computation_matrix(POOL_B)
        assert not np.array_equal(after[0], before[0])
        assert np.array_equal(after[1:], before[1:])
        fresh = HeterogeneousCostModel(CASE.workflow, model.base_costs, beta=0.5, seed=11)
        assert np.array_equal(after, fresh.computation_matrix(POOL_B))
        assert model.computation_cost(job, "r9") == fresh.computation_cost(job, "r9")
        assert model.computation_cost(job, "r2") == after[0, 1]


def _wrapped(kind: str, prior: HeterogeneousCostModel):
    if kind == "prior":
        return prior
    if kind == "scaled":
        return ScaledCostModel(prior, PROFILE)
    if kind == "ratio":
        return RatioAdjustedCostModel(prior, _history(EVERY_BRANCH))
    return PerturbedCostModel(prior, GaussianErrorModel(sigma=0.3, seed=5))


class TestScalarsReadThePricedColumns:
    @pytest.mark.parametrize("columns_first", [True, False], ids=["columns", "scalars"])
    @pytest.mark.parametrize("kind", ["prior", "scaled", "ratio", "perturbed"])
    def test_scalar_equals_the_matrix_entry(self, kind, columns_first):
        prior = _prior()
        model = _wrapped(kind, prior)
        jobs = model.workflow.structure().jobs

        def scalars():
            return np.array([[model.computation_cost(job, rid) for rid in POOL_B] for job in jobs])

        if columns_first:
            matrix = model.computation_matrix(POOL_B).copy()
            scalar = scalars()
        else:
            scalar = scalars()
            matrix = model.computation_matrix(POOL_B).copy()
        assert np.array_equal(matrix, scalar)
        # the prior's own columns hold the same floats the wrapper scaled
        assert np.array_equal(
            prior.computation_columns(POOL_B), _prior().computation_matrix(POOL_B)
        )
        if columns_first and kind in ("prior", "scaled"):
            # the batch filled no per-pair mirror for the scalars to read
            # (the ratio view's legacy records draw a few pairs on their own)
            assert _held_prices(prior)[1] == 0

    def test_wrapper_prices_subsets_without_memoising_base_matrices(self):
        prior = _prior()
        prior.computation_matrix(POOL_A)
        ScaledCostModel(prior, PROFILE).computation_matrix(POOL_B)
        # the base still holds its own pool's views, not the wrapper's subset
        assert {key[1] for key in _held_prices(prior)[0]} == {tuple(POOL_A)}


class TestEdgeViewFollowsEdgeOrder:
    """``edge_communication_costs`` walks ``structure().succ`` in job order.

    That walk must stay ``Workflow.edges()`` order (the order the upward
    rank's gather indices assume) also after an edge is removed and
    re-added, which moves it to the end of its source's successors.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        v=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=4),
        data=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_view_equals_scalars_in_edge_order(self, v, seed, picks, data):
        case = generate_random_case(
            RandomDAGParameters(v=v, out_degree=0.3, ccr=1.0, beta=0.5), seed=seed
        )
        workflow = case.workflow
        model = HeterogeneousCostModel(
            workflow, case.costs.base_costs, beta=0.5, bandwidth=3.0, latency=0.25, seed=seed
        )

        def check() -> None:
            scalars = [
                model.average_communication_cost(src, dst) for src, dst, _ in workflow.edges()
            ]
            assert np.array_equal(
                model.edge_communication_costs(), np.array(scalars, dtype=np.float64)
            )

        check()
        for pick in picks:
            edges = workflow.edges()
            if not edges:
                break
            src, dst, _ = edges[pick % len(edges)]
            workflow.remove_edge(src, dst)
            check()
            workflow.add_edge(src, dst, data)
            check()
