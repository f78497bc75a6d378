"""Contract tests of the ``repro.run`` facade and the uniform registry.

ISSUE 7's API redesign promises one entry point over the four execution
paths.  This suite pins the contract:

* every mode × suitable registry strategy returns a well-formed
  :class:`~repro.facade.RunResult` (schedule/trace/outcomes/decisions/
  metrics views all consistent with the mode),
* mode inference (workload → ``multi``, named strategy → its registered
  kind, otherwise ``adaptive``),
* the error surface (unknown mode, pool+scenario conflict, ``resources=``
  without a scenario, multi with ``costs=``, missing pool, stream into a
  single-workflow mode),
* the uniform registry (``available``/``make``/``describe``, the
  ``strategy``/``error-model`` aliases, per-domain error types preserved),
* the lower-level ``SharedGridExecutor`` returns what ``mode="multi"``
  returns.
"""

from __future__ import annotations

import pytest

import repro
from repro import registry
from repro.core.adaptive import AdaptiveRunResult
from repro.facade import MODES, RunResult, run
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.resources.dynamics import ResourceChangeModel
from repro.scenarios.base import ScenarioError
from repro.simulation.shared_grid import SharedGridExecutor, SharedGridResult
from repro.workload.streams import WorkloadStream, default_tenants


@pytest.fixture(scope="module")
def case():
    params = RandomDAGParameters(v=12, out_degree=0.3, ccr=1.0, beta=0.5)
    return generate_random_case(params, seed=5)


@pytest.fixture(scope="module")
def model():
    return ResourceChangeModel(
        initial_size=4, interval=60.0, fraction=0.3, max_events=3
    )


@pytest.fixture(scope="module")
def stream():
    tenants = default_tenants(2, arrival_rate=0.01, max_arrivals=2, v=6)
    return WorkloadStream(tenants, seed=1, horizon=4000.0)


def _scheduler_names_for(mode: str):
    """Registry strategies that are valid for ``mode``."""
    names = registry.available("scheduler")
    if mode in ("static", "dynamic"):
        return [n for n in names if registry.describe("scheduler", n)["kind"] == mode]
    # adaptive and multi need the reschedule interface
    return [n for n in names if hasattr(registry.make("scheduler", n), "reschedule")]


def _check_single_mode_result(result: RunResult, mode: str, name: str):
    assert isinstance(result, RunResult)
    assert result.mode == mode
    # single-workflow modes surface the runner's display label (e.g.
    # "MaxMin" for the registry key "maxmin"), so compare case-folded
    assert result.strategy.lower().replace("-", "_").replace(" ", "_") in (
        name, name.replace("_", "")
    ) or name.startswith(result.strategy.lower())
    assert result.schedule is not None
    assert result.makespan > 0.0
    assert result.rescheduling_count >= 0
    assert result.outcomes == []
    assert isinstance(result.decisions, list)
    metrics = result.metrics
    assert metrics["mode"] == mode
    assert metrics["makespan"] == result.makespan
    assert "initial_makespan" in metrics and "evaluated_events" in metrics
    assert isinstance(result.raw, AdaptiveRunResult)


@pytest.mark.parametrize("mode", ["static", "adaptive", "dynamic"])
def test_every_registry_strategy_runs_in_its_modes(mode, case, model):
    names = _scheduler_names_for(mode)
    assert names, f"no registry strategies for mode {mode!r}"
    for name in names:
        result = run(
            case.workflow, model.build_pool(), mode=mode, costs=case.costs,
            strategy=name,
        )
        _check_single_mode_result(result, mode, name)


def test_every_reschedule_strategy_runs_in_multi_mode(stream, model):
    for name in _scheduler_names_for("multi"):
        result = run(stream, model.build_pool(), mode="multi", strategy=name)
        assert result.mode == "multi"
        assert result.strategy == registry.make("scheduler", name).name
        assert isinstance(result.raw, SharedGridResult)
        assert result.schedule is None
        assert result.outcomes and result.makespan > 0.0
        assert result.metrics["workflows"] == len(result.outcomes)
        assert result.rescheduling_count == sum(
            o.reschedule_count for o in result.raw.outcomes
        )


def test_multi_mode_labels_a_scheduler_factory_by_its_scheduler(stream, model):
    from repro.scheduling.cpop import CPOPScheduler

    result = run(stream, model.build_pool(), mode="multi", scheduler_factory=CPOPScheduler)
    assert result.strategy == CPOPScheduler().name
    assert result.metrics["strategy"] == CPOPScheduler().name
    assert run(stream, model.build_pool(), mode="multi").strategy == "AHEFT"


def test_mode_inference(case, model, stream):
    assert run(stream, model.build_pool()).mode == "multi"
    pool = model.build_pool()
    assert run(case.workflow, pool, costs=case.costs).mode == "adaptive"
    assert run(case.workflow, pool, costs=case.costs, strategy="heft").mode == "static"
    assert run(case.workflow, pool, costs=case.costs, strategy="minmin").mode == "dynamic"


def test_scenario_and_error_model_by_name(case):
    result = run(
        case.workflow, costs=case.costs, scenario="departures",
        error_model="gaussian", resources=4, seed=3,
    )
    assert result.mode == "adaptive"
    assert result.makespan > 0.0


def test_error_surface(case, model, stream):
    pool = model.build_pool()
    with pytest.raises(ValueError, match="unknown mode"):
        run(case.workflow, pool, mode="turbo", costs=case.costs)
    with pytest.raises(ValueError, match="not both"):
        run(case.workflow, pool, scenario="static", costs=case.costs)
    with pytest.raises(ValueError, match="resources= sizes the pool"):
        run(case.workflow, pool, resources=8, costs=case.costs)
    with pytest.raises(ValueError, match="no pool"):
        run(case.workflow, costs=case.costs)
    with pytest.raises(ValueError, match="costs= is not accepted"):
        run(stream, pool, mode="multi", costs=case.costs)
    with pytest.raises(ValueError, match="single Workflow"):
        run(stream, pool, mode="adaptive", costs=case.costs)
    with pytest.raises(ValueError, match="requires the estimated costs"):
        run(case.workflow, pool, mode="static")
    with pytest.raises(ValueError, match="registered strategy name"):
        run(stream, pool, mode="multi", strategy=repro.AHEFTScheduler())


# ---------------------------------------------------------------------------
# uniform registry


def test_registry_kinds_and_aliases():
    assert registry.available("scheduler") == registry.available("strategy")
    assert registry.available("error_model") == registry.available("error-model")
    assert "aheft" in registry.available("scheduler")
    assert "departures" in registry.available("scenario")
    assert "gaussian" in registry.available("error_model")
    with pytest.raises(KeyError, match="unknown registry kind"):
        registry.available("workflese")


def test_registry_make_and_describe():
    scheduler = registry.make("scheduler", "heft")
    assert scheduler.__class__.__name__ == "HEFTScheduler"
    info = registry.describe("scheduler", "aheft")
    assert info["kind"] == "adaptive" and info["summary"]
    scenario = registry.make("scenario", "churn", interval=200.0)
    assert scenario.params()["interval"] == 200.0
    assert "defaults" in registry.describe("scenario", "churn")
    error_model = registry.make("error_model", "gaussian", magnitude=0.2, seed=9)
    assert error_model.magnitude == 0.2 and error_model.seed == 9
    assert "summary" in registry.describe("error_model", "gaussian")


def test_registry_preserves_per_domain_error_types():
    with pytest.raises(KeyError, match="unknown scheduler"):
        registry.make("scheduler", "nope")
    with pytest.raises(ScenarioError, match="unknown scenario"):
        registry.make("scenario", "nope")
    with pytest.raises(KeyError, match="unknown error model"):
        registry.make("error_model", "nope")


@pytest.mark.parametrize(
    "kind, error, prefix",
    [
        ("scheduler", KeyError, "unknown scheduler 'nope'; registered: "),
        ("scenario", ScenarioError, "unknown scenario 'nope'; available: "),
        ("error_model", KeyError, "unknown error model 'nope'; available: "),
    ],
)
def test_make_and_describe_raise_one_unknown_name_error(kind, error, prefix):
    messages = []
    for lookup in (registry.make, registry.describe):
        with pytest.raises(error) as excinfo:
            lookup(kind, "nope")
        messages.append(str(excinfo.value).strip('"'))
    assert messages[0] == messages[1]
    assert messages[0] == prefix + str(registry.available(kind))


# ---------------------------------------------------------------------------
# lower-level entry point


def test_direct_shared_grid_construction_matches_facade(stream, model):
    direct = SharedGridExecutor(stream.arrivals(), model.build_pool()).run()
    facade = run(stream, model.build_pool(), mode="multi")
    assert direct.makespan() == facade.makespan
    assert [o.key for o in direct.outcomes] == [o.key for o in facade.outcomes]


def test_facade_is_exported_at_package_root():
    assert repro.run is run
    assert repro.RunResult is RunResult
    assert repro.registry is registry
    assert set(MODES) == {"static", "adaptive", "dynamic", "multi"}
