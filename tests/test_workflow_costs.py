"""Tests for cost models."""

import numpy as np
import pytest

import repro
from repro import registry
from repro.resources.dynamics import ResourceChangeModel
from repro.scenarios import materialize
from repro.workflow import costs as costs_module
from repro.workflow.costs import (
    CostModel,
    HeterogeneousCostModel,
    TabularCostModel,
    UniformCostModel,
    _held_prices,
)

#: NaN and both infinities: pricing inputs the models must refuse by name
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestTabularCostModel:
    def test_lookup(self, diamond_workflow, diamond_costs):
        assert diamond_costs.computation_cost("a", "r1") == 2.0
        assert diamond_costs.computation_cost("b", "r2") == 2.0

    def test_missing_job_in_table_raises(self, diamond_workflow):
        with pytest.raises(ValueError, match="missing jobs"):
            TabularCostModel(diamond_workflow, {"a": {"r1": 1.0}})

    def test_missing_resource_strict_raises(self, diamond_costs):
        with pytest.raises(KeyError):
            diamond_costs.computation_cost("a", "r9")

    def test_missing_resource_non_strict_returns_average(self, diamond_workflow):
        model = TabularCostModel(
            diamond_workflow,
            {j: {"r1": 2.0, "r2": 4.0} for j in diamond_workflow.jobs},
            strict=False,
        )
        assert model.computation_cost("a", "r9") == pytest.approx(3.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_cost_rejected(self, diamond_workflow, value):
        table = {j: {"r1": 1.0} for j in diamond_workflow.jobs}
        table["b"]["r2"] = value
        with pytest.raises(ValueError, match="must be finite"):
            TabularCostModel(diamond_workflow, table)

    def test_negative_cost_rejected(self, diamond_workflow):
        table = {j: {"r1": 1.0} for j in diamond_workflow.jobs}
        table["a"] = {"r1": -1.0}
        with pytest.raises(ValueError, match="negative"):
            TabularCostModel(diamond_workflow, table)

    def test_communication_zero_on_same_resource(self, diamond_costs):
        assert diamond_costs.communication_cost("a", "b", "r1", "r1") == 0.0

    def test_communication_equals_edge_data_across_resources(self, diamond_costs):
        assert diamond_costs.communication_cost("a", "c", "r1", "r2") == 3.0

    def test_average_computation(self, diamond_costs):
        assert diamond_costs.average_computation_cost("a") == pytest.approx(3.0)
        assert diamond_costs.average_computation_cost("a", ["r1"]) == 2.0

    def test_average_computation_none_means_intrinsic(self, diamond_costs):
        assert diamond_costs.average_computation_cost(
            "a", None
        ) == diamond_costs.intrinsic_average_computation_cost("a")

    def test_average_computation_empty_resources_raises(self, diamond_costs):
        # an explicitly empty pool must not silently fall back to the
        # intrinsic average (it used to, via a truthiness check)
        with pytest.raises(ValueError, match="empty resource set"):
            diamond_costs.average_computation_cost("a", [])
        with pytest.raises(ValueError, match="empty resource set"):
            diamond_costs.average_computation_cost("a", ())

    def test_average_computation_costs_vector_empty_resources_raises(
        self, diamond_costs
    ):
        with pytest.raises(ValueError, match="empty resource set"):
            diamond_costs.average_computation_costs([])

    def test_dense_views_match_scalar_queries(self, diamond_workflow, diamond_costs):
        resources = ["r1", "r2"]
        matrix = diamond_costs.computation_matrix(resources)
        averages = diamond_costs.average_computation_costs(resources)
        for i, job in enumerate(diamond_workflow.jobs):
            for j, rid in enumerate(resources):
                assert matrix[i, j] == diamond_costs.computation_cost(job, rid)
            assert averages[i] == diamond_costs.average_computation_cost(
                job, resources
            )
        comm = diamond_costs.edge_communication_costs()
        for k, (src, dst, _) in enumerate(diamond_workflow.edges()):
            assert comm[k] == diamond_costs.average_communication_cost(src, dst)

    def test_invalidate_cache_drops_stale_dense_views(self, diamond_costs):
        resources = ["r1", "r2"]
        before = diamond_costs.computation_matrix(resources)
        assert diamond_costs.computation_matrix(resources) is before  # memo hit
        # in-place table edit: invisible to the workflow version, so the
        # model must be told explicitly
        diamond_costs._comp["a"]["r1"] = 99.0
        diamond_costs.invalidate_cache()
        after = diamond_costs.computation_matrix(resources)
        assert after is not before
        assert after[0, 0] == 99.0

    def test_resources_listing(self, diamond_costs):
        assert diamond_costs.resources() == ["r1", "r2"]

    def test_ccr_positive(self, diamond_costs):
        assert diamond_costs.ccr() > 0


class TestHeterogeneousCostModel:
    @pytest.fixture
    def model(self, diamond_workflow):
        return HeterogeneousCostModel(
            diamond_workflow,
            {"a": 10.0, "b": 20.0, "c": 30.0, "d": 40.0},
            beta=1.0,
            bandwidth=2.0,
            seed=7,
        )

    def test_costs_within_beta_band(self, model):
        for job, base in model.base_costs.items():
            for rid in ["r1", "r2", "r3"]:
                cost = model.computation_cost(job, rid)
                assert base * 0.5 <= cost <= base * 1.5

    def test_deterministic_and_cached(self, diamond_workflow, model):
        other = HeterogeneousCostModel(
            diamond_workflow,
            dict(model.base_costs),
            beta=1.0,
            bandwidth=2.0,
            seed=7,
        )
        assert model.computation_cost("a", "r1") == other.computation_cost("a", "r1")
        assert model.computation_cost("a", "r1") == model.computation_cost("a", "r1")

    def test_new_resource_column_independent_of_query_order(self, model):
        first = model.computation_cost("a", "r99")
        # querying other resources must not change r99's draw
        model.computation_cost("a", "r1")
        assert model.computation_cost("a", "r99") == first

    def test_beta_zero_homogeneous(self, diamond_workflow):
        model = HeterogeneousCostModel(
            diamond_workflow, {j: 10.0 for j in diamond_workflow.jobs}, beta=0.0
        )
        assert model.computation_cost("a", "r1") == 10.0
        assert model.computation_cost("a", "r2") == 10.0

    def test_invalid_beta_raises(self, diamond_workflow):
        with pytest.raises(ValueError):
            HeterogeneousCostModel(diamond_workflow, {j: 1.0 for j in diamond_workflow.jobs}, beta=3.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["beta", "bandwidth", "latency"])
    def test_non_finite_parameter_raises(self, diamond_workflow, name, value):
        base = {j: 1.0 for j in diamond_workflow.jobs}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            HeterogeneousCostModel(diamond_workflow, base, **{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_base_cost_raises(self, diamond_workflow, value):
        base = {j: 1.0 for j in diamond_workflow.jobs}
        base["c"] = value
        with pytest.raises(ValueError, match="base cost of job 'c' must be finite"):
            HeterogeneousCostModel(diamond_workflow, base)

    def test_missing_base_cost_raises(self, diamond_workflow):
        with pytest.raises(ValueError, match="missing"):
            HeterogeneousCostModel(diamond_workflow, {"a": 1.0})

    def test_communication_uses_bandwidth_and_latency(self, diamond_workflow):
        model = HeterogeneousCostModel(
            diamond_workflow,
            {j: 10.0 for j in diamond_workflow.jobs},
            bandwidth=2.0,
            latency=1.0,
        )
        # edge a->c carries 3.0 units: 1.0 + 3.0/2.0
        assert model.communication_cost("a", "c", "r1", "r2") == pytest.approx(2.5)
        assert model.communication_cost("a", "c", "r1", "r1") == 0.0

    def test_intrinsic_average_is_base(self, model):
        assert model.intrinsic_average_computation_cost("b") == 20.0


class TestUniformCostModel:
    def test_same_cost_everywhere(self, diamond_workflow):
        model = UniformCostModel(diamond_workflow, computation=5.0)
        assert model.computation_cost("a", "r1") == 5.0
        assert model.computation_cost("d", "anything") == 5.0

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["computation", "bandwidth", "latency"])
    def test_non_finite_parameter_raises(self, diamond_workflow, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            UniformCostModel(diamond_workflow, **{name: value})

    def test_unknown_job_raises(self, diamond_workflow):
        model = UniformCostModel(diamond_workflow)
        with pytest.raises(KeyError):
            model.computation_cost("ghost", "r1")

    def test_ccr_of_uniform_model(self, diamond_workflow):
        model = UniformCostModel(diamond_workflow, computation=2.0)
        # average data = (2+3+1+4)/4 = 2.5; ccr = 2.5 / 2.0
        assert model.ccr() == pytest.approx(1.25)


def _count_draws(monkeypatch):
    """Count scalar ``"wij"`` streams and batched draw calls (one kernel pass
    each) in the cost model."""
    counts = {"wij": 0, "batches": 0}
    spawn_rng, uniform_blocks = costs_module.spawn_rng, costs_module.uniform_blocks

    def counting_spawn_rng(root, *tokens):
        if tokens and tokens[0] == "wij":
            counts["wij"] += 1
        return spawn_rng(root, *tokens)

    def counting_uniform_blocks(*args, **kwargs):
        counts["batches"] += 1
        return uniform_blocks(*args, **kwargs)

    monkeypatch.setattr(costs_module, "spawn_rng", counting_spawn_rng)
    monkeypatch.setattr(costs_module, "uniform_blocks", counting_uniform_blocks)
    return counts


class TestBatchedComputationMatrix:
    """``computation_matrix`` prices new columns in one batched draw that
    must agree with the per-pair ``computation_cost`` stream bit for bit."""

    RIDS = ["r1", "r2", "r3", "r7"]

    @staticmethod
    def _scalar_matrix(model, rids):
        jobs = model.workflow.structure().jobs
        return np.array([[model.computation_cost(j, r) for r in rids] for j in jobs])

    def test_batch_first_matches_scalar_and_scalars_read_the_columns(
        self, make_case, monkeypatch
    ):
        model = make_case(v=40, seed=3).costs
        fresh = make_case(v=40, seed=3).costs
        counts = _count_draws(monkeypatch)
        matrix = model.computation_matrix(self.RIDS)
        assert counts == {"wij": 0, "batches": 1}
        # scalar queries read the priced columns: they draw nothing, and
        # the batch left no per-pair copy of its draws
        assert np.array_equal(matrix, self._scalar_matrix(model, self.RIDS))
        assert counts == {"wij": 0, "batches": 1}
        assert _held_prices(model)[1] == 0
        # and equals a model that never took the batched path
        assert np.array_equal(matrix, self._scalar_matrix(fresh, self.RIDS))
        assert counts["wij"] == 40 * len(self.RIDS)

    def test_scalar_first_matches_batch(self, make_case):
        model = make_case(v=40, seed=4).costs
        scalar = self._scalar_matrix(model, self.RIDS)
        assert np.array_equal(model.computation_matrix(self.RIDS), scalar)
        assert np.array_equal(model.computation_matrix(self.RIDS[::-1]), scalar[:, ::-1])

    def test_only_new_columns_are_drawn(self, make_case, monkeypatch):
        model = make_case(v=30, seed=5).costs
        counts = _count_draws(monkeypatch)
        model.computation_matrix(["r1", "r2"])
        grown = model.computation_matrix(["r1", "r2", "r3", "r4"])
        assert counts == {"wij": 0, "batches": 2}
        assert np.array_equal(grown, self._scalar_matrix(model, ["r1", "r2", "r3", "r4"]))
        model.computation_matrix(["r4", "r1"])  # every column already priced
        assert counts["batches"] == 2

    def test_matches_after_invalidate_cache(self, make_case):
        model = make_case(v=30, seed=6).costs
        before = model.computation_matrix(self.RIDS).copy()
        job = model.workflow.jobs[0]
        model.base_costs[job] *= 2.0
        model.invalidate_cache()
        after = model.computation_matrix(self.RIDS)
        assert np.array_equal(after, self._scalar_matrix(model, self.RIDS))
        assert not np.array_equal(after[0], before[0])
        assert np.array_equal(after[1:], before[1:])

    def test_matches_after_add_job(self, make_case):
        model = make_case(v=30, seed=7).costs
        before = model.computation_matrix(self.RIDS).copy()
        model.workflow.add_job("late")
        model.base_costs["late"] = 12.5
        after = model.computation_matrix(self.RIDS)
        assert after.shape == (31, len(self.RIDS))
        assert np.array_equal(after[:-1], before)
        assert np.array_equal(after, self._scalar_matrix(model, self.RIDS))

    def test_scalar_of_a_job_outside_the_workflow_draws_it(self, make_case):
        case = make_case(v=20, seed=8)
        base_costs = {**case.costs.base_costs, "spare": 7.5}
        model = HeterogeneousCostModel(case.workflow, base_costs, beta=0.5, seed=2)
        fresh = HeterogeneousCostModel(case.workflow, base_costs, beta=0.5, seed=2)
        model.computation_matrix(self.RIDS)  # priced columns lack "spare"
        for rid in self.RIDS:
            assert model.computation_cost("spare", rid) == fresh.computation_cost("spare", rid)

    def test_scalars_after_add_job_before_any_rebuild(self, make_case):
        model = make_case(v=30, seed=9).costs
        fresh = make_case(v=30, seed=9).costs
        model.computation_matrix(self.RIDS)
        for costs in (model, fresh):
            costs.workflow.add_job("late")
            costs.base_costs["late"] = 12.5
        # the columns priced before the edit still serve the old jobs, and
        # the new job is drawn on its own
        assert np.array_equal(
            self._scalar_matrix(model, self.RIDS), self._scalar_matrix(fresh, self.RIDS)
        )

    @pytest.mark.parametrize("beta, base", [(0.0, 10.0), (1.0, 0.0)])
    def test_degenerate_band_is_the_base_cost(self, diamond_workflow, beta, base, monkeypatch):
        model = HeterogeneousCostModel(
            diamond_workflow, {j: base for j in diamond_workflow.jobs}, beta=beta
        )
        counts = _count_draws(monkeypatch)
        matrix = model.computation_matrix(self.RIDS)
        assert (matrix == base).all()
        assert counts == {"wij": 0, "batches": 0}
        assert model.computation_cost("a", "r9") == base


class TestPricingDrawCount:
    """CI guard: the adaptive loop prices ``w[i][j]`` only through batched
    draws: one pass ahead, at grid open, for the whole growing pool, and
    none in any ``computation_matrix`` call."""

    def test_adaptive_run_on_growing_pool(self, make_case, monkeypatch):
        case = make_case(v=300, seed=1, out_degree=20 / 300, ccr=1.0, beta=0.5)
        pool = ResourceChangeModel(6, interval=120, fraction=0.3, max_events=5).build_pool()
        counts = _count_draws(monkeypatch)
        per_call = []
        computation_matrix = CostModel.computation_matrix

        def counting_matrix(self, resources):
            before = counts["batches"]
            try:
                return computation_matrix(self, resources)
            finally:
                per_call.append(counts["batches"] - before)

        monkeypatch.setattr(CostModel, "computation_matrix", counting_matrix)
        result = repro.run(case.workflow, pool, costs=case.costs, mode="adaptive")
        assert result.makespan > 0
        assert len(pool.all_resource_ids()) > 6, "the pool never grew"
        assert counts["wij"] == 0
        # the initial pool and every joining resource were priced ahead
        assert counts["batches"] == 1
        assert per_call and max(per_call) == 0
        columns = case.costs._structural_store()["columns"]
        assert set(columns) == set(pool.all_resource_ids())


class TestPricingCallCount:
    """CI guard: under estimate error the predictor views price ``w[i][j]``
    column-wise and share the prior's communication views."""

    def test_adaptive_run_under_churn_and_gaussian_error(self, make_case, monkeypatch):
        case = make_case(v=150, seed=2, out_degree=20 / 150, ccr=1.0, beta=0.5)
        scenario = materialize(
            registry.make("scenario", "churn"), initial_size=8, seed=2, horizon=8000.0
        )
        default_loop = []
        priced = set()
        builds = {}
        keep_alive = []
        price_columns = CostModel._price_columns
        computation_matrix = CostModel.computation_matrix
        memoize = CostModel.memoize

        def counting_price_columns(self, resource_ids):
            default_loop.append(type(self).__name__)
            return price_columns(self, resource_ids)

        def recording_matrix(self, resources):
            priced.add(type(self).__name__)
            return computation_matrix(self, resources)

        def counting_memoize(self, key, builder):
            if key not in (("cavg",), ("pred_comm",)):
                return memoize(self, key, builder)

            def counted():
                keep_alive.append(self)  # ids stay unique while counted
                builds[(id(self), key)] = builds.get((id(self), key), 0) + 1
                return builder()

            return memoize(self, key, counted)

        monkeypatch.setattr(CostModel, "_price_columns", counting_price_columns)
        monkeypatch.setattr(CostModel, "computation_matrix", recording_matrix)
        monkeypatch.setattr(CostModel, "memoize", counting_memoize)
        result = repro.run(
            case.workflow,
            scenario.pool,
            costs=case.costs,
            mode="adaptive",
            perf_profile=scenario.profile,
            error_model=registry.make("error_model", "gaussian", magnitude=0.3, seed=2),
        )
        assert result.makespan > 0
        assert len(result.raw.decisions) > 3, "too few replans to guard"
        assert "RatioAdjustedCostModel" in priced, "the predictor never re-estimated"
        assert default_loop == []
        # the wrappers hand out the prior's views: only it builds them, once
        assert {model for model, _ in builds} == {id(case.costs)}
        assert max(builds.values()) == 1, builds
