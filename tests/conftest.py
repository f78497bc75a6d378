"""Shared fixtures for the test suite.

Besides the classic example fixtures (diamond/chain DAGs, the Fig. 4
sample), three *factory* fixtures replace the ad-hoc builders test modules
used to carry locally:

* ``make_case(v=20, seed=0, **params)`` — a deterministic priced random-DAG
  case; keyword defaults mirror
  :class:`~repro.generators.random_dag.RandomDAGParameters`;
* ``make_pool(initial=4, joins=(), leaves={})`` — a resource pool with
  optional later joins and departure windows;
* ``build_scenario(name, **params)`` — a registered scenario instance, or —
  when ``initial_size`` is passed — its materialised
  :class:`~repro.scenarios.base.ScenarioRun` (pool + perf profile +
  validated events).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="regenerate committed golden fixtures (tests/goldens/) instead of "
        "comparing against them",
    )


def pytest_configure(config):
    # the suite runs only current entry points: a DeprecationWarning means a
    # legacy path came back (or a dependency's API is going away)
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")

from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.generators.sample import (
    sample_dag_cost_model,
    sample_dag_pool,
    sample_dag_workflow,
)
from repro.resources.dynamics import ResourceChangeModel
from repro.resources.pool import ResourcePool
from repro.resources.resource import Resource
from repro.workflow.costs import TabularCostModel, UniformCostModel
from repro.workflow.dag import Workflow


@pytest.fixture
def make_case():
    """Factory for deterministic priced random-DAG cases."""

    def factory(
        v: int = 20,
        *,
        seed: int = 0,
        instance: int = 0,
        out_degree: float = 0.2,
        ccr: float = 1.0,
        beta: float = 0.5,
        alpha: float = 1.0,
        omega_dag: float = 50.0,
    ):
        params = RandomDAGParameters(
            v=v,
            out_degree=out_degree,
            ccr=ccr,
            beta=beta,
            alpha=alpha,
            omega_dag=omega_dag,
        )
        return generate_random_case(params, seed=seed, instance=instance)

    return factory


@pytest.fixture
def make_pool():
    """Factory for resource pools with joins and departure windows.

    ``joins`` entries are either a join time or a ``(time, count)`` pair;
    joined resources continue the ``r<N>`` numbering.  ``leaves`` maps a
    resource id to its ``available_until`` departure time.
    """

    def factory(initial: int = 4, *, joins=(), leaves=None, prefix: str = "r"):
        until = dict(leaves or {})
        pool = ResourcePool()
        for index in range(1, initial + 1):
            rid = f"{prefix}{index}"
            pool.add(Resource(rid, available_until=until.get(rid)))
        counter = initial
        for join in joins:
            time, count = join if isinstance(join, tuple) else (join, 1)
            for _ in range(int(count)):
                counter += 1
                rid = f"{prefix}{counter}"
                pool.add(
                    Resource(
                        rid,
                        available_from=float(time),
                        available_until=until.get(rid),
                    )
                )
        return pool

    return factory


@pytest.fixture
def build_scenario():
    """Factory for registered scenarios, optionally materialised.

    ``build_scenario("churn", interval=100.0)`` returns the scenario
    instance; adding ``initial_size=6`` (plus optional ``seed``/
    ``horizon``) materialises it into a ScenarioRun with a concrete pool
    and performance profile.
    """

    def factory(
        name: str = "static",
        *,
        initial_size=None,
        seed: int = 0,
        horizon: float = 8000.0,
        **params,
    ):
        from repro import registry
        from repro.scenarios import materialize

        scenario = registry.make("scenario", name, **params)
        if initial_size is None:
            return scenario
        return materialize(
            scenario, initial_size=int(initial_size), seed=seed, horizon=horizon
        )

    return factory


@pytest.fixture
def diamond_workflow() -> Workflow:
    """A 4-job diamond DAG: a -> {b, c} -> d."""
    wf = Workflow("diamond")
    for job in ["a", "b", "c", "d"]:
        wf.add_job(job)
    wf.add_edge("a", "b", data=2.0)
    wf.add_edge("a", "c", data=3.0)
    wf.add_edge("b", "d", data=1.0)
    wf.add_edge("c", "d", data=4.0)
    return wf


@pytest.fixture
def diamond_costs(diamond_workflow) -> TabularCostModel:
    """Two-resource tabular cost model for the diamond DAG."""
    return TabularCostModel(
        diamond_workflow,
        {
            "a": {"r1": 2.0, "r2": 4.0},
            "b": {"r1": 3.0, "r2": 2.0},
            "c": {"r1": 5.0, "r2": 4.0},
            "d": {"r1": 2.0, "r2": 3.0},
        },
    )


@pytest.fixture
def chain_workflow() -> Workflow:
    """A 3-job chain: a -> b -> c."""
    wf = Workflow("chain")
    for job in ["a", "b", "c"]:
        wf.add_job(job)
    wf.add_edge("a", "b", data=1.0)
    wf.add_edge("b", "c", data=1.0)
    return wf


@pytest.fixture
def two_resource_pool() -> ResourcePool:
    pool = ResourcePool()
    pool.add(Resource("r1"))
    pool.add(Resource("r2"))
    return pool


@pytest.fixture
def sample_workflow() -> Workflow:
    return sample_dag_workflow()


@pytest.fixture
def sample_costs(sample_workflow) -> TabularCostModel:
    return sample_dag_cost_model(sample_workflow)


@pytest.fixture
def sample_pool() -> ResourcePool:
    return sample_dag_pool()


@pytest.fixture
def small_random_case(make_case):
    """A small (20-job) random priced case, deterministic."""
    return make_case(v=20, out_degree=0.3, seed=123)


@pytest.fixture
def growing_pool(make_pool) -> ResourcePool:
    """Four resources at t=0 plus two joining later."""
    return make_pool(4, joins=(30.0, 60.0))


@pytest.fixture
def change_model() -> ResourceChangeModel:
    return ResourceChangeModel(initial_size=4, interval=25.0, fraction=0.25, max_events=8)
