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
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.history import PerformanceHistoryRepository, PerformanceRecord
from repro.core.predictor import RatioAdjustedCostModel
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scenarios.base import ScaledCostModel, ScenarioError
from repro.workflow.costs import HeterogeneousCostModel

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
        [prior.average_communication_cost(jobs[src], jobs[dst]) for src, dst in structure.edges]
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
