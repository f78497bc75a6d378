"""Pricing a run's pool ahead, at grid open.

Before its first event a shared grid prices every workflow it will plan
in one :func:`~repro.workflow.costs.price_columns` pass: each workflow's
estimate model on every pool resource that has not left the grid by its
release.  These tests pin that the pass draws exactly the floats the
per-pair streams and the lazy first-read path draw, that a run priced
ahead is the run priced lazily, and that a run makes one kernel pass and
reads every column it priced ahead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import registry
from repro.core.admission import AdmissionConfig
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.resources.dynamics import ResourceChangeModel
from repro.scenarios.base import ScaledCostModel
from repro.simulation import shared_grid
from repro.utils import rng as rng_module
from repro.utils.rng import spawn_rng
from repro.workflow.costs import (
    CostModel,
    HeterogeneousCostModel,
    TabularCostModel,
    UniformCostModel,
    price_columns,
)
from repro.workflow.dag import Workflow
from repro.workload.streams import WorkloadStream, default_tenants


def _kernel_passes(monkeypatch):
    """Record the size of every generator-kernel pass."""
    passes = []
    seed_outputs = rng_module._seed_outputs

    def counting(seeds):
        passes.append(seeds.size)
        return seed_outputs(seeds)

    monkeypatch.setattr(rng_module, "_seed_outputs", counting)
    return passes


# ----------------------------------------------------------------------
# (a) the pass against the per-pair streams and the lazy path
# ----------------------------------------------------------------------
def _pair_draw(model, job, rid):
    """``w`` of one pair as the per-pair stream draws it."""
    base = model.base_costs[job]
    low, high = model._bounds(base)
    if high > low:
        return float(spawn_rng(model.seed, "wij", job, rid).uniform(low, high))
    return float(base)


#: a job's base cost: zero (an empty band at any beta) or positive
_BASES = st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=500.0))
_RIDS = st.lists(st.sampled_from(["r1", "r2", "r3", "r4", "x9"]), max_size=6)


@st.composite
def _models(draw):
    """A heterogeneous model of a small workflow: any seed, beta 0 or not,
    and possibly some columns priced already through the lazy path."""
    workflow = Workflow("w")
    jobs = [f"n{k}" for k in range(draw(st.integers(min_value=0, max_value=5)))]
    for job in jobs:
        workflow.add_job(job)
    model = HeterogeneousCostModel(
        workflow,
        {job: draw(_BASES) for job in jobs},
        beta=draw(st.sampled_from([0.0, 0.5, 2.0])),
        seed=draw(st.integers(min_value=0, max_value=2**40)),
    )
    primed = draw(_RIDS)
    return model, primed


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(_models(), min_size=1, max_size=4),
    requests=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), _RIDS), max_size=8
    ),
)
def test_price_columns_draws_the_per_pair_streams(specs, requests):
    models = []
    for model, primed in specs:
        if primed:
            model.computation_columns(primed)  # partly priced, lazily
        models.append(model)
    # models the kernel does not price ride along in the same request
    table_flow = Workflow("t")
    table_flow.add_job("a")
    others = [
        UniformCostModel(models[0].workflow, computation=3.0),
        TabularCostModel(table_flow, {"a": {"r1": 1.0}}),
        ScaledCostModel(models[0], {"r1": 2.0}),
    ]
    pool = models + others
    asked = [(pool[k % len(pool)], rids) for k, rids in requests]
    before = {id(m): dict(m._structural_store()["columns"]) for m in models}

    priced = price_columns(iter(asked))

    # each model priced what its requests named and its store lacked, in
    # first-request order, once
    want = {}
    for model, rids in asked:
        if isinstance(model, HeterogeneousCostModel):
            wanted = want.setdefault(id(model), (model, {}))[1]
            wanted.update((rid, None) for rid in rids if rid not in before[id(model)])
    assert [(id(m), rids) for m, rids in priced] == [
        (key, list(wanted)) for key, (_, wanted) in want.items() if wanted
    ]
    for model in others:
        store = model._structural_store()
        assert store is None or not store["columns"]
    for model in models:
        columns = model._structural_store()["columns"]
        jobs = model.workflow.structure().jobs
        # what was priced before is kept, not redrawn
        for rid, column in before[id(model)].items():
            assert columns[rid] is column
        twin = HeterogeneousCostModel(
            model.workflow, model.base_costs, beta=model.beta, seed=model.seed
        )
        for rid, column in columns.items():
            pairs = np.array([_pair_draw(model, job, rid) for job in jobs], dtype=np.float64)
            assert column.tobytes() == pairs.tobytes(), rid
            lazy = twin.computation_columns([rid])[:, 0]
            assert column.tobytes() == np.ascontiguousarray(lazy).tobytes(), rid


def test_one_kernel_pass_for_every_model_and_none_without_draws(monkeypatch):
    cases = [
        generate_random_case(RandomDAGParameters(v=12, beta=0.5), seed=seed)
        for seed in (1, 2)
    ]
    flat = HeterogeneousCostModel(
        cases[0].workflow, cases[0].costs.base_costs, beta=0.0, seed=4
    )
    passes = _kernel_passes(monkeypatch)
    priced = price_columns(
        [
            (cases[0].costs, ["r1", "r2"]),
            (flat, ["r1"]),
            (cases[1].costs, ["r3", "r1", "r3"]),
            (cases[0].costs, ["r2", "r4"]),
        ]
    )
    assert [(m, rids) for m, rids in priced] == [
        (cases[0].costs, ["r1", "r2", "r4"]),
        (flat, ["r1"]),
        (cases[1].costs, ["r3", "r1"]),
    ]
    assert passes == [12 * 3 + 12 * 2]  # the flat model draws nothing
    assert price_columns([(cases[0].costs, ["r4", "r1"]), (flat, ["r1"])]) == []
    passes.clear()
    assert price_columns([(flat, ["r2", "r3"])]) == [(flat, ["r2", "r3"])]
    assert passes == []
    base = [flat.base_costs[job] for job in flat.workflow.structure().jobs]
    assert flat.computation_columns(["r2", "r3"]).tolist() == [[cost, cost] for cost in base]


# ----------------------------------------------------------------------
# (b) a run priced ahead is the run priced lazily
# ----------------------------------------------------------------------
STRATEGIES = ("aheft", "heft_dup", "mincost_flow", "cpop")
SCENARIOS = ("paper", "churn", "flash_crowd", "departures")
TRUTHS = (None, "gaussian")


def _schedule_view(schedule):
    if schedule is None:
        return None
    return schedule.to_dict(), schedule.duplicates_to_dict()


def _result_view(result):
    """Everything a :class:`~repro.facade.RunResult` carries, as values."""
    raw = result.raw
    if result.mode == "multi":
        body = (
            [
                (
                    o.key, o.tenant, o.kind, o.seq, o.arrival_time, o.completed_at,
                    o.dedicated_span, _schedule_view(o.schedule), o.decisions,
                    o.wasted_work, o.killed_jobs, _schedule_view(o.actual_schedule),
                    o.deadline, o.slo_stretch,
                )
                for o in raw.outcomes
            ],
            raw.admission,
            raw.credits,
        )
    else:
        body = (
            raw.strategy,
            _schedule_view(raw.initial_schedule),
            _schedule_view(raw.final_schedule),
            raw.decisions,
            raw.trace,
            raw.killed_jobs,
        )
    return result.mode, result.strategy, result.makespan, result.wasted_work, body


def _run(mode, strategy, scenario, truth):
    """One small run, built from scratch (no column priced before it)."""
    run = repro.materialize(
        registry.make("scenario", scenario), initial_size=4, seed=3, horizon=3000.0
    )
    error = None if truth is None else registry.make("error_model", truth, magnitude=0.3, seed=3)
    if mode == "multi":
        tenants = default_tenants(2, arrival_rate=0.003, max_arrivals=3, v=8, parallelism=4)
        return repro.run(
            WorkloadStream(tenants, seed=3, horizon=3000.0).arrivals(),
            run.pool,
            mode="multi",
            perf_profile=run.profile,
            error_model=error,
            strategy=strategy,
            admission=AdmissionConfig(),
        )
    case = generate_random_case(
        RandomDAGParameters(v=16, out_degree=0.2, beta=0.5, omega_dag=300.0), seed=3
    )
    return repro.run(
        case.workflow,
        run.pool,
        costs=case.costs,
        mode="adaptive",
        perf_profile=run.profile,
        error_model=error,
        strategy=strategy,
    )


@pytest.mark.parametrize("truth", TRUTHS)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("mode", ["adaptive", "multi"])
def test_priced_ahead_run_is_the_lazy_run(mode, strategy, scenario, truth, monkeypatch):
    ahead = _result_view(_run(mode, strategy, scenario, truth))
    monkeypatch.setattr(shared_grid, "price_columns", lambda requests: [])
    assert ahead == _result_view(_run(mode, strategy, scenario, truth))


# ----------------------------------------------------------------------
# (c) one kernel pass per run, and every column priced ahead is read
# ----------------------------------------------------------------------
def _flash_crowd_run():
    tenants = default_tenants(4, arrival_rate=0.002, max_arrivals=6, v=12, parallelism=6)
    arrivals = WorkloadStream(tenants, seed=7, horizon=20000.0).arrivals()
    run = repro.materialize(
        registry.make("scenario", "flash_crowd"), initial_size=16, seed=7, horizon=20000.0
    )
    return len(arrivals), lambda: repro.run(
        arrivals,
        run.pool,
        mode="multi",
        perf_profile=run.profile,
        policy="credit_drf",
        admission=AdmissionConfig(),
    )


def _growing_pool_run():
    case = generate_random_case(
        RandomDAGParameters(v=300, out_degree=20 / 300, ccr=1.0, beta=0.5, omega_dag=300.0),
        seed=7,
    )
    pool = ResourceChangeModel(10, interval=120, fraction=0.15, max_events=10).build_pool()
    return 1, lambda: repro.run(case.workflow, pool, costs=case.costs, mode="adaptive")


@pytest.mark.parametrize("build", [_flash_crowd_run, _growing_pool_run])
def test_a_run_makes_one_pricing_pass_and_reads_every_column(build, monkeypatch):
    workflows, run = build()
    priced, read = [], set()
    ahead = shared_grid.price_columns

    def pricing(requests):
        done = ahead(requests)
        priced.extend(done)
        return done

    monkeypatch.setattr(shared_grid, "price_columns", pricing)
    columns = CostModel.computation_columns

    def reading(self, resource_ids):
        read.update((id(self), rid) for rid in resource_ids)
        return columns(self, resource_ids)

    monkeypatch.setattr(CostModel, "computation_columns", reading)
    passes = _kernel_passes(monkeypatch)
    result = run()
    assert result.makespan > 0
    assert len(passes) == 1
    assert len(priced) == workflows
    ahead_pairs = {(id(model), rid) for model, rids in priced for rid in rids}
    assert passes[0] == sum(
        model.workflow.num_jobs * len(rids) for model, rids in priced
    )
    assert ahead_pairs - read == set()
    # nothing was priced after open: every pair read had a column
    models = {id(model) for model, _ in priced}
    assert {pair for pair in read if pair[0] in models} <= ahead_pairs
