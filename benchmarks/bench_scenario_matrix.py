"""Scenario matrix: HEFT vs AHEFT vs Min-Min under adversarial dynamics.

The paper's evaluation (§4.1) only exercises resource *joins*; this
benchmark re-runs the strategy comparison under every registered scenario
of the scenario engine — departures (busy resources included),
performance degradation/recovery, pool-wide load spikes, churn and flash
crowds — reporting mean makespan, adopted-reschedule count and wasted
work per strategy.

The same matrix is runnable from the CLI (``repro sweep --scenario …``);
CI runs the quick four-scenario subset and gates the resulting ledger
against ``benchmarks/baselines/scenario_smoke.json`` via ``repro
compare``.  Run directly (``python benchmarks/bench_scenario_matrix.py
[--quick]``) or via pytest.
"""

from __future__ import annotations

import sys
from dataclasses import asdict

from _common import WORKERS, publish, run_once

from repro import registry
from repro.experiments.config import RandomExperimentConfig
from repro.experiments.reporting import render_scenario_matrix
from repro.experiments.sweep import scenario_cell, sweep_matrix

STRATEGIES = ("HEFT", "AHEFT", "MinMin")


def run_matrix(*, quick: bool = False):
    base = RandomExperimentConfig(
        v=30 if quick else 60, resources=8 if quick else 10, seed=0
    )
    points = sweep_matrix(
        scenario_cell,
        base,
        {"scenario": registry.available("scenario")},
        instances=1 if quick else 2,
        strategies=STRATEGIES,
        workers=WORKERS,
    )
    text = render_scenario_matrix(
        points,
        strategies=STRATEGIES,
        title="Strategy comparison under adversarial grid dynamics",
    )
    publish(
        "scenario_matrix",
        text,
        {"scenarios": [asdict(point) for point in points]},
    )
    return points


def test_scenario_matrix(benchmark):
    points = run_once(benchmark, run_matrix)
    by_name = {point.scenario: point for point in points}
    # AHEFT never loses to static HEFT under the paper's own dynamics …
    assert by_name["paper"].improvement() >= -1e-9
    # … and adaptive rescheduling recovers work under departures
    assert by_name["departures"].mean_reschedules["AHEFT"] > 0


if __name__ == "__main__":
    run_matrix(quick="--quick" in sys.argv)
