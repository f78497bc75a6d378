"""The uncertainty engine (ISSUE-4).

Four guarantee families:

* **Deterministic sampling** — an error model's truth factors are a pure
  function of ``(seed, replication, scope, job, resource)``: independent of
  query order, stable across pickling (process boundaries), distinct
  between replications, and exactly 1.0 at magnitude zero.
* **Feasibility under noise** — executed traces of every strategy under
  random error models still satisfy the scheduling invariants: no slot
  overlap, precedence including communication delay, and availability
  windows.
* **The Fig. 1 feedback loop** — observed actuals accumulate in the
  Performance History Repository, the Predictor's re-estimated model moves
  towards the observed truths (both blend semantics), and the adaptive
  accept rule really plans with the re-estimated model.
* **Determinism under parallelism** — the uncertainty cell and its matrix
  produce byte-identical results for ``workers=1`` and ``workers=N``.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import registry
from repro.core.history import PerformanceHistoryRepository
from repro.core.predictor import (
    Predictor,
    RatioAdjustedCostModel,
)
from repro.experiments.config import RandomExperimentConfig
from repro.experiments.runner import run_instances
from repro.experiments.sweep import sweep_matrix
from repro.experiments.uncertainty import uncertainty_cell
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scenarios import materialize
from repro.scheduling.validation import (
    check_no_overlap,
    check_precedence,
    validate_schedule,
)
from repro.utils import rng as rng_module
from repro.workflow import costs as costs_module
from repro.workflow.costs import (
    ERROR_MODELS,
    ErrorModel,
    PerturbedCostModel,
    draw_factors,
    prime_truth_factors,
)

FAMILIES = sorted(ERROR_MODELS)


def _case(v: int, seed: int):
    params = RandomDAGParameters(v=v, out_degree=0.2, ccr=1.0, beta=0.5, omega_dag=300.0)
    return generate_random_case(params, seed=seed)


# ----------------------------------------------------------------------
# deterministic sampling
# ----------------------------------------------------------------------
class TestErrorModelSampling:
    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        magnitude=st.floats(min_value=0.01, max_value=0.8),
        seed=st.integers(min_value=0, max_value=10**6),
        replication=st.integers(min_value=0, max_value=50),
    )
    def test_factors_are_pure_functions(self, family, magnitude, seed, replication):
        """Same key, same factor — regardless of query order or instance."""
        model = registry.make(
            "error_model", family, magnitude=magnitude, seed=seed
        ).for_replication(replication)
        pairs = [(f"j{i}", f"r{j}") for i in range(4) for j in range(3)]
        forward = {pair: model.factor(*pair) for pair in pairs}
        # a fresh instance queried in reverse order answers identically
        twin = registry.make(
            "error_model", family, magnitude=magnitude, seed=seed
        ).for_replication(replication)
        backward = {pair: twin.factor(*pair) for pair in reversed(pairs)}
        assert forward == backward
        # factors survive the process boundary (the parallel runner pickles)
        clone = pickle.loads(pickle.dumps(model))
        assert {pair: clone.factor(*pair) for pair in pairs} == forward
        for factor in forward.values():
            assert factor >= model.floor

    @settings(max_examples=15, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_replications_and_scopes_draw_independently(self, family, seed):
        magnitude = 0.5
        model = registry.make("error_model", family, magnitude=magnitude, seed=seed)
        a = [model.for_replication(0).factor(f"j{i}", "r1") for i in range(12)]
        b = [model.for_replication(1).factor(f"j{i}", "r1") for i in range(12)]
        assert a != b
        c = [model.scoped("t1/0").factor(f"j{i}", "r1") for i in range(12)]
        assert a != c

    @pytest.mark.parametrize("family", FAMILIES)
    def test_magnitude_zero_is_null(self, family):
        model = registry.make("error_model", family, magnitude=0.0, seed=3)
        assert model.is_null
        assert model.factor("j1", "r1") == 1.0
        assert model.actual_duration(123.456, "j1", "r1") == 123.456

    def test_resource_bias_is_systematic(self):
        model = registry.make("error_model", "resource_bias", magnitude=0.4, seed=7)
        bias = model.resource_bias("r2")
        for i in range(8):
            assert model.factor(f"j{i}", "r2") == bias

    def test_resource_bias_is_drawn_once_per_resource(self, monkeypatch):
        model = registry.make("error_model", "resource_bias", magnitude=0.4, seed=7)
        twin = registry.make("error_model", "resource_bias", magnitude=0.4, seed=7)
        biases = {rid: twin.resource_bias(rid) for rid in ("r1", "r2")}
        streams = []
        spawn_rng = costs_module.spawn_rng

        def counting_spawn_rng(root, *tokens):
            streams.append(tokens[-2])
            return spawn_rng(root, *tokens)

        monkeypatch.setattr(costs_module, "spawn_rng", counting_spawn_rng)
        for i in range(6):
            for rid in ("r1", "r2"):
                assert model.factor(f"j{i}", rid) == biases[rid]
        assert streams.count("bias") == 2
        # the memo is no parameter: equal models, same params, fresh copies
        assert model == twin and hash(model) == hash(twin)
        assert model.params() == twin.params()
        assert model.scoped("t1").resource_bias("r1") == twin.scoped("t1").resource_bias("r1")
        assert pickle.loads(pickle.dumps(model)).resource_bias("r2") == biases["r2"]

    def test_registry_rejects_unknown_names(self):
        with pytest.raises(KeyError):
            registry.make("error_model", "nope")
        with pytest.raises(KeyError):
            registry.describe("error_model", "nope")["summary"]
        for name in registry.available("error_model"):
            assert registry.describe("error_model", name)["summary"]

    def test_perturbed_model_perturbs_computation_only(self):
        case = _case(v=12, seed=4)
        noisy = PerturbedCostModel(
            case.costs, registry.make("error_model", "gaussian", magnitude=0.5, seed=1)
        )
        exact = PerturbedCostModel(
            case.costs, registry.make("error_model", "gaussian", magnitude=0.0)
        )
        jobs = list(case.workflow.jobs)
        assert any(
            noisy.computation_cost(j, "r1") != case.costs.computation_cost(j, "r1")
            for j in jobs
        )
        for j in jobs:
            # zero noise: bitwise identical to the estimates
            assert exact.computation_cost(j, "r1") == case.costs.computation_cost(j, "r1")
        src, dst, _ = next(iter(case.workflow.edges()))
        assert noisy.communication_cost(src, dst, "r1", "r2") == (
            case.costs.communication_cost(src, dst, "r1", "r2")
        )
        assert noisy.average_communication_cost(src, dst) == (
            case.costs.average_communication_cost(src, dst)
        )
        assert noisy.has_uniform_communication == case.costs.has_uniform_communication


class TestBatchedTruthFactors:
    """Factors drawn in one kernel pass equal ``ErrorModel.factor``."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        magnitude=st.sampled_from([0.0, 0.05, 0.3, 0.8]),
        seed=st.integers(min_value=0, max_value=2**63),
        replication=st.integers(min_value=0, max_value=50),
        scope=st.sampled_from(["", "t1/0", "tenant/7"]),
    )
    def test_equal_to_one_at_a_time(self, family, magnitude, seed, replication, scope):
        model = (
            registry.make("error_model", family, magnitude=magnitude, seed=seed)
            .for_replication(replication)
            .scoped(scope)
        )
        pairs = [(f"j{i}", f"r{i % 5}") for i in range(24)] + [("j3", "r3"), ("j3", "r3")]
        (batched,) = draw_factors([(model, pairs)])
        assert batched == [model.factor(*pair) for pair in pairs]

    def test_many_models_in_one_pass(self, monkeypatch):
        passes = []
        seed_states = rng_module._seed_states

        def counting(seeds):
            passes.append(seeds.size)
            return seed_states(seeds)

        monkeypatch.setattr(rng_module, "_seed_states", counting)
        models = [
            registry.make("error_model", family, magnitude=magnitude, seed=3).scoped(f"t{k}")
            for k, (family, magnitude) in enumerate(
                (family, magnitude) for family in FAMILIES for magnitude in (0.0, 0.4)
            )
        ]
        pairs = [(f"j{i}", f"r{i % 3}") for i in range(7)]
        got = draw_factors((model, pairs) for model in models)
        assert passes == [7 * len(FAMILIES)]  # the null models draw nothing
        assert got == [[model.factor(*pair) for pair in pairs] for model in models]
        assert draw_factors([]) == [] and passes == [7 * len(FAMILIES)]

    def test_a_few_pairs_are_drawn_one_at_a_time(self, monkeypatch):
        from repro.workflow import costs

        monkeypatch.setattr(rng_module, "_seed_states", None)  # no kernel pass
        model = registry.make("error_model", "lognormal", magnitude=0.3, seed=8)
        pairs = [(f"j{i}", "r1") for i in range(costs._BATCH_FROM - 1)]
        null = registry.make("error_model", "uniform", magnitude=0.0)
        assert draw_factors([(model, pairs), (null, pairs * 3)]) == [
            [model.factor(*pair) for pair in pairs], [1.0] * len(pairs) * 3
        ]

    def test_priming_fills_only_what_perturbed_models_lack(self, monkeypatch):
        case = _case(v=12, seed=4)
        jobs = list(case.workflow.jobs)
        noisy = PerturbedCostModel(
            case.costs, registry.make("error_model", "stragglers", magnitude=0.5, seed=2)
        )
        null = PerturbedCostModel(
            case.costs, registry.make("error_model", "gaussian", magnitude=0.0)
        )
        before = noisy.computation_cost(jobs[0], "r1")
        prime_truth_factors(
            [(noisy, [(job, rid) for job in jobs for rid in ("r1", "r2")]),
             (null, [(jobs[0], "r1")]),
             (case.costs, [(jobs[0], "r1")])]
        )
        assert len(noisy._factor_cache) == 2 * len(jobs)
        assert null._factor_cache == {}

        def no_scalar_draws(self, job_id, resource_id):
            raise AssertionError("a primed pair was drawn again")

        monkeypatch.setattr(ErrorModel, "factor", no_scalar_draws)
        assert noisy.computation_cost(jobs[0], "r1") == before
        fresh = PerturbedCostModel(case.costs, noisy.error)
        monkeypatch.undo()
        for job in jobs:
            for rid in ("r1", "r2"):
                assert noisy.computation_cost(job, rid) == fresh.computation_cost(job, rid)


# ----------------------------------------------------------------------
# feasibility invariants under noise
# ----------------------------------------------------------------------
class TestExecutionFeasibilityUnderNoise:
    @settings(max_examples=12, deadline=None)
    @given(
        v=st.integers(min_value=8, max_value=28),
        case_seed=st.integers(min_value=0, max_value=10**6),
        family=st.sampled_from(FAMILIES),
        magnitude=st.floats(min_value=0.05, max_value=0.6),
        scenario_name=st.sampled_from(
            ["static", "paper", "departures", "churn", "join_burst"]
        ),
        scenario_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_adaptive_actual_trace_is_feasible(
        self, v, case_seed, family, magnitude, scenario_name, scenario_seed
    ):
        case = _case(v=v, seed=case_seed)
        run = materialize(
            registry.make("scenario", scenario_name), initial_size=6, seed=scenario_seed
        )
        model = registry.make("error_model", family, magnitude=magnitude, seed=case_seed)
        result = repro.run(
            case.workflow, run.pool, costs=case.costs, mode="adaptive", perf_profile=run.profile,
            error_model=model,
        ).raw
        assert result.trace is not None
        actual = result.trace.to_schedule()
        # precedence + communication delay + no overlap + availability
        validate_schedule(case.workflow, case.costs, actual, pool=run.pool)
        # the achieved makespan is the trace's, never the stale plan's
        assert result.makespan == result.trace.makespan()

    @settings(max_examples=10, deadline=None)
    @given(
        v=st.integers(min_value=8, max_value=24),
        case_seed=st.integers(min_value=0, max_value=10**6),
        family=st.sampled_from(FAMILIES),
        magnitude=st.floats(min_value=0.05, max_value=0.6),
        scenario_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_static_and_dynamic_traces_are_feasible(
        self, v, case_seed, family, magnitude, scenario_seed
    ):
        case = _case(v=v, seed=case_seed)
        run = materialize(
            registry.make("scenario", "departures"), initial_size=6, seed=scenario_seed
        )
        model = registry.make("error_model", family, magnitude=magnitude, seed=case_seed)
        for mode in ("static", "dynamic"):
            result = repro.run(
                case.workflow, run.pool, costs=case.costs, mode=mode,
                perf_profile=run.profile, error_model=model,
            ).raw
            schedule = result.trace.to_schedule()
            assert check_no_overlap(schedule) == []
            assert check_precedence(case.workflow, case.costs, schedule) == []

    def test_noise_triggers_deviation_decisions(self):
        case = _case(v=24, seed=9)
        run = materialize(registry.make("scenario", "static"), initial_size=6, seed=0)
        result = repro.run(
            case.workflow, run.pool, costs=case.costs, mode="adaptive", perf_profile=run.profile,
            error_model=registry.make("error_model", "gaussian", magnitude=0.5, seed=2),
        ).raw
        assert any(d.event == "deviation" for d in result.decisions)
        # with the trigger disabled the loop only reacts to grid events,
        # of which the static scenario has none
        quiet = repro.run(
            case.workflow, run.pool, costs=case.costs, mode="adaptive", perf_profile=run.profile,
            error_model=registry.make("error_model", "gaussian", magnitude=0.5, seed=2),
            replan_on_deviation=None,
        ).raw
        assert quiet.decisions == []


# ----------------------------------------------------------------------
# the Fig. 1 feedback loop
# ----------------------------------------------------------------------
class TestPredictorFeedbackLoop:
    def test_observations_accumulate_and_normalise(self):
        case = _case(v=20, seed=5)
        run = materialize(registry.make("scenario", "paper"), initial_size=5, seed=1)
        history = PerformanceHistoryRepository()
        result = repro.run(
            case.workflow, run.pool, costs=case.costs, mode="adaptive", perf_profile=run.profile,
            error_model=registry.make("error_model", "resource_bias", magnitude=0.4, seed=6),
            history=history,
        ).raw
        assert len(history) == case.workflow.num_jobs
        truth = PerturbedCostModel(
            case.costs, registry.make("error_model", "resource_bias", magnitude=0.4, seed=6)
        )
        for record in history.records:
            # each observation is the sampled ground-truth duration of the
            # job on the resource it actually executed on
            expected = truth.computation_cost(record.job_id, record.resource_id)
            assert record.duration == pytest.approx(expected, rel=1e-9)
        assert result.trace is not None

    def test_ratio_model_recovers_resource_bias(self):
        case = _case(v=20, seed=5)
        error = registry.make("error_model", "resource_bias", magnitude=0.5, seed=8)
        truth = PerturbedCostModel(case.costs, error)
        history = PerformanceHistoryRepository()
        for job in list(case.workflow.jobs)[:10]:
            history.record_execution(
                case.workflow.job(job).operation,
                "r1",
                truth.computation_cost(job, "r1"),
                job_id=job,
            )
        model = RatioAdjustedCostModel(case.costs, history, prior_strength=0.0)
        bias = error.resource_bias("r1")
        assert model.resource_ratio("r1") == pytest.approx(bias, rel=1e-9)
        for job in case.workflow.jobs:
            assert model.computation_cost(job, "r1") == pytest.approx(
                truth.computation_cost(job, "r1"), rel=1e-9
            )
        # unobserved resources keep the prior
        for job in case.workflow.jobs:
            assert model.computation_cost(job, "r2") == (
                case.costs.computation_cost(job, "r2")
            )

    def test_ratio_shrinkage_discounts_sparse_evidence(self):
        case = _case(v=12, seed=2)
        history = PerformanceHistoryRepository()
        job = next(iter(case.workflow.jobs))
        prior = case.costs.computation_cost(job, "r1")
        history.record_execution(
            case.workflow.job(job).operation, "r1", 3.0 * prior, job_id=job
        )
        eager = RatioAdjustedCostModel(case.costs, history, prior_strength=0.0)
        cautious = RatioAdjustedCostModel(case.costs, history, prior_strength=2.0)
        assert eager.resource_ratio("r1") == pytest.approx(3.0)
        assert cautious.resource_ratio("r1") == pytest.approx((3.0 + 2.0) / 3.0)

    def test_blend_interpolates_between_prior_and_observation(self):
        case = _case(v=12, seed=3)
        job = next(iter(case.workflow.jobs))
        operation = case.workflow.job(job).operation
        prior = case.costs.computation_cost(job, "r1")
        observed = prior * 1.8
        history = PerformanceHistoryRepository()
        history.record_execution(operation, "r1", observed, job_id=job)
        for blend in (0.0, 0.25, 0.5, 1.0):
            ratio = RatioAdjustedCostModel(
                case.costs, history, blend=blend, prior_strength=0.0
            )
            assert ratio.computation_cost(job, "r1") == pytest.approx(
                prior * (blend * 1.8 + (1 - blend))
            )

    def test_history_shared_across_workflows_stays_well_priced(self):
        """Ratio learning divides each observation by the estimate stored at
        observation time, so foreign workflows with colliding job ids
        cannot skew the correction factor."""
        error = registry.make("error_model", "resource_bias", magnitude=0.5, seed=11)
        config_a = RandomExperimentConfig(v=14, resources=5, seed=0, scenario="static")
        config_b = RandomExperimentConfig(v=14, resources=5, seed=99, scenario="static")
        case_a = config_a.to_experiment_case().case
        case_b = config_b.to_experiment_case().case
        # both generated DAGs reuse the same job identifiers
        assert set(case_a.workflow.jobs) == set(case_b.workflow.jobs)
        history = PerformanceHistoryRepository()
        pool_a = config_a.to_experiment_case().build_scenario_run().pool
        repro.run(
            case_a.workflow, pool_a, costs=case_a.costs, mode="static",
            error_model=error, history=history,
        ).raw
        # the supplied history alone forces the simulation (and recording)
        assert len(history) == case_a.workflow.num_jobs
        model = RatioAdjustedCostModel(case_b.costs, history, prior_strength=0.0)
        bias = error.resource_bias("r1")
        # workflow B's re-estimation on r1 recovers A's observed bias even
        # though B prices the colliding job ids completely differently
        assert model.resource_ratio("r1") == pytest.approx(bias, rel=1e-9)

    def test_executor_monitor_normalises_perf_factors(self):
        """Executor observations divide out known slowdown factors, so a
        shared history never double-counts a degradation the profile
        already reports."""
        case = _case(v=16, seed=6)
        run = materialize(
            registry.make("scenario", "degradation"), initial_size=5, seed=3
        )
        history = PerformanceHistoryRepository()
        repro.run(
            case.workflow, run.pool, costs=case.costs, mode="static", perf_profile=run.profile,
            error_model=registry.make("error_model", "gaussian", magnitude=0.0), history=history,
        ).raw
        truth_free = {
            (r.job_id, r.resource_id): r.duration for r in history.records
        }
        for (job, rid), duration in truth_free.items():
            # zero noise + normalisation: the observation equals the estimate
            assert duration == pytest.approx(
                case.costs.computation_cost(job, rid), rel=1e-9
            )

    def test_predictor_estimates_with_the_ratio_model(self):
        case = _case(v=10, seed=1)
        history = PerformanceHistoryRepository()
        job = next(iter(case.workflow.jobs))
        history.record_execution(case.workflow.job(job).operation, "r1", 5.0, job_id=job)
        assert isinstance(Predictor(history).estimate(case.costs), RatioAdjustedCostModel)
        # empty history: the prior passes through untouched
        assert Predictor(PerformanceHistoryRepository()).estimate(case.costs) is case.costs

    def test_accept_rule_plans_with_reestimated_model(self):
        """After observations accumulate, reschedule sees the ratio model."""
        from repro.scheduling.aheft import AHEFTScheduler

        seen = []

        class SpyScheduler(AHEFTScheduler):
            def reschedule(self, workflow, costs, resources, **kwargs):
                seen.append(costs)
                return super().reschedule(workflow, costs, resources, **kwargs)

        case = _case(v=20, seed=7)
        run = materialize(registry.make("scenario", "paper"), initial_size=5, seed=2)
        history = PerformanceHistoryRepository()
        repro.run(
            case.workflow, run.pool, costs=case.costs, mode="adaptive", perf_profile=run.profile,
            error_model=registry.make("error_model", "resource_bias", magnitude=0.5, seed=4),
            history=history, strategy=SpyScheduler(),
        ).raw
        assert seen, "no rescheduling decision was evaluated"
        reestimated = [
            model for model in seen if isinstance(model, RatioAdjustedCostModel)
        ]
        assert reestimated, "accept rule never saw the re-estimated model"
        # the re-estimated model really answers with history-corrected costs
        model = reestimated[-1]
        resource = model.history.records[0].resource_id
        ratio = model.resource_ratio(resource)
        job = next(iter(case.workflow.jobs))
        assert model.computation_cost(job, resource) == pytest.approx(
            case.costs.computation_cost(job, resource) * ratio
        )


# ----------------------------------------------------------------------
# determinism under parallelism
# ----------------------------------------------------------------------
def _point_payload(points):
    return json.dumps([asdict(point) for point in points], sort_keys=True)


class TestReplicationDeterminism:
    def test_uncertainty_cell_workers_match(self):
        config = RandomExperimentConfig(v=14, resources=5, seed=0, scenario="paper")
        kwargs = dict(magnitude=0.3, error_model="gaussian", replications=4)
        serial = uncertainty_cell(config, workers=1, **kwargs)
        parallel = uncertainty_cell(config, workers=2, **kwargs)
        assert _point_payload([serial]) == _point_payload([parallel])

    def test_uncertainty_matrix_workers_match(self):
        base = RandomExperimentConfig(v=14, resources=5, seed=0)
        axes = {"scenario": ("paper",), "magnitude": [0.0, 0.4]}
        kwargs = dict(error_model="resource_bias", instances=2, replications=2)
        serial = sweep_matrix(uncertainty_cell, base, axes, workers=1, **kwargs)
        parallel = sweep_matrix(uncertainty_cell, base, axes, workers=3, **kwargs)
        assert _point_payload(serial) == _point_payload(parallel)

    def test_repro_bench_workers_env_cannot_change_a_digit(self, monkeypatch):
        """The benchmark harness's REPRO_BENCH_WORKERS knob is inert on
        results: whatever worker count it parses, the sweep's payload is
        byte-identical to the serial run."""
        import importlib
        import sys

        bench_dir = str(
            __import__("pathlib").Path(__file__).resolve().parent.parent / "benchmarks"
        )
        monkeypatch.syspath_prepend(bench_dir)
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
        sys.modules.pop("_common", None)
        common = importlib.import_module("_common")
        try:
            assert common.WORKERS == 3
            base = RandomExperimentConfig(v=12, resources=4, seed=0)
            axes = {"scenario": ("paper",), "magnitude": [0.3]}
            kwargs = dict(error_model="gaussian", instances=1, replications=2)
            env_driven = sweep_matrix(
                uncertainty_cell, base, axes, workers=common.WORKERS, **kwargs
            )
            serial = sweep_matrix(uncertainty_cell, base, axes, workers=None, **kwargs)
            assert _point_payload(env_driven) == _point_payload(serial)
        finally:
            sys.modules.pop("_common", None)

    def test_replications_share_workload_but_not_truth(self):
        config = RandomExperimentConfig(v=14, resources=5, seed=0, scenario="paper")
        results = run_instances(
            config,
            instances=1,
            strategies=("HEFT", "AHEFT"),
            error_model=registry.make("error_model", "gaussian", magnitude=0.4, seed=0),
            replications=4,
        )
        workloads = {
            json.dumps(
                {k: v for k, v in r.params.items() if k != "replication"},
                sort_keys=True,
                default=str,
            )
            for r in results
        }
        assert len(workloads) == 1
        assert [r.params["replication"] for r in results] == [0, 1, 2, 3]
        assert len({r.makespans["HEFT"] for r in results}) > 1
        point = uncertainty_cell(config, magnitude=0.4, replications=4)
        assert point.stats["HEFT"].count == 4

    def test_zero_magnitude_replications_are_degenerate(self):
        config = RandomExperimentConfig(v=14, resources=5, seed=0, scenario="paper")
        point = uncertainty_cell(config, magnitude=0.0, replications=3)
        for stat in point.stats.values():
            assert stat.count == 3
            assert stat.min == stat.max
            assert stat.ci95_half == pytest.approx(0.0, abs=1e-9)
