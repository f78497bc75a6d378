"""Trace-level regression for the plan-once and just-in-time executors.

Seeded random DAGs run under grid dynamics (``static``, ``departures``,
``churn``, ``flash_crowd``) and three ground truths (exact estimates,
``gaussian`` at 0.4, ``stragglers`` at 0.2).  ``heft``, ``heft_dup`` and
``cpop`` plans go through :class:`StaticScheduleExecutor` (so duplicate
copies are executed), ``minmin``, ``maxmin`` and ``sufferage`` map through
:class:`JustInTimeExecutor`.  Every record of each trace — assignments,
duplicates, kills and transfers, in record order — is compared bit for bit
against ``tests/goldens/executor_traces.json``.

A separate check runs one departure case in two interpreters with
different string hash seeds: a trace must not depend on set order.

If a change *intentionally* alters an execution, regenerate with

    pytest tests/test_executor_traces.py --regen-goldens
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import registry
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scenarios import materialize
from repro.simulation.executor import JustInTimeExecutor, StaticScheduleExecutor
from repro.workflow.costs import PerturbedCostModel

GOLDEN_PATH = Path(__file__).parent / "goldens" / "executor_traces.json"
ROOT = Path(__file__).resolve().parents[1]

CASE_SEEDS = (1, 2, 3)
SCENARIOS = ("static", "departures", "churn", "flash_crowd")
#: label -> (error family, magnitude); ``None`` executes the estimates
TRUTHS = {
    "exact": None,
    "gaussian0.4": ("gaussian", 0.4),
    "stragglers0.2": ("stragglers", 0.2),
}
PLANNED = ("heft", "heft_dup", "cpop")
MAPPED = ("minmin", "maxmin", "sufferage")


def trace_records(trace) -> dict:
    """Every record of ``trace`` as JSON-ready lists, in record order."""
    return {
        "assignments": [
            [a.job_id, a.resource_id, a.start, a.finish]
            for a in trace.assignments.values()
        ],
        "duplicates": [
            [d.job_id, d.resource_id, d.start, d.finish] for d in trace.duplicates
        ],
        "kills": [[k.job_id, k.resource_id, k.start, k.killed_at] for k in trace.kills],
        "transfers": [
            [
                t.producer, t.consumer, t.source_resource, t.target_resource,
                t.start, t.finish,
            ]
            for t in trace.transfers
        ],
    }


def run_strategy(case, run, truth, strategy: str):
    """Execute ``strategy`` on ``case`` over the materialised ``run``."""
    scheduler = registry.make("scheduler", strategy)
    if strategy in MAPPED:
        return JustInTimeExecutor(
            case.workflow,
            case.costs,
            run.pool,
            mapper=scheduler,
            actual_costs=truth,
            perf_profile=run.profile,
        ).run()
    schedule = scheduler.schedule(case.workflow, case.costs, run.pool.available_at(0.0))
    return StaticScheduleExecutor(
        case.workflow,
        case.costs,
        schedule,
        run.pool,
        actual_costs=truth,
        perf_profile=run.profile,
    ).run()


def _all_traces() -> dict:
    out = {}
    for seed in CASE_SEEDS:
        case = generate_random_case(RandomDAGParameters(v=24, ccr=2.0), seed=seed)
        for scenario in SCENARIOS:
            run = materialize(
                registry.make("scenario", scenario), initial_size=4, seed=seed
            )
            for label, error in TRUTHS.items():
                truth = None
                if error is not None:
                    family, magnitude = error
                    model = registry.make(
                        "error_model", family, magnitude=magnitude, seed=seed
                    )
                    truth = PerturbedCostModel(case.costs, model)
                for strategy in PLANNED + MAPPED:
                    trace = run_strategy(case, run, truth, strategy)
                    out[f"{seed}/{scenario}/{label}/{strategy}"] = trace_records(trace)
    return out


def test_executor_traces_match_golden(request):
    actual = _all_traces()
    if request.config.getoption("--regen-goldens"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        # one line per case keeps the file small and its diffs per case
        lines = [
            f"{json.dumps(key)}: {json.dumps(actual[key], sort_keys=True)}"
            for key in sorted(actual)
        ]
        GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(actual) == sorted(golden)
    for key in sorted(actual):
        assert actual[key] == golden[key], f"{key}: trace drifted from the golden"


def test_golden_executes_duplicates_and_kills():
    """The golden is only a contract if it covers every record kind."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for kind in ("duplicates", "kills", "transfers"):
        assert any(records[kind] for records in golden.values()), kind
    dup_killed = [
        key
        for key, records in golden.items()
        if key.endswith("/heft_dup") and records["duplicates"] and records["kills"]
    ]
    assert dup_killed


#: r1, r2 and r8 leave together at t=1600; which stranded order fails over
#: first decides the order of the re-fetch transfer records
_HASH_SEED_PROBE = """
import json
from repro import registry
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scenarios import materialize
from repro.workflow.costs import PerturbedCostModel
from tests.test_executor_traces import run_strategy, trace_records

case = generate_random_case(RandomDAGParameters(v=60), seed=3)
run = materialize(
    registry.make("scenario", "flash_crowd"), initial_size=5, seed=3, horizon=8000
)
truth = PerturbedCostModel(
    case.costs, registry.make("error_model", "stragglers", magnitude=0.2, seed=3)
)
print(json.dumps({
    name: trace_records(run_strategy(case, run, truth, name))
    for name in ("heft", "cpop", "heft_dup")
}))
"""


def _probe(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    done = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_static_trace_does_not_depend_on_the_hash_seed():
    first, second = _probe("1"), _probe("2")
    assert json.loads(first)["heft"]["kills"], "the probe must depart busy resources"
    assert first == second
