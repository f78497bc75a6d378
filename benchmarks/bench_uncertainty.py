"""Uncertainty matrix: strategy robustness vs estimate-error magnitude.

The paper's adaptive architecture exists because execution-time estimates
are inaccurate, yet its headline experiments assume they are perfect.
This benchmark runs the Monte Carlo uncertainty engine instead: every
cell replays the same workloads under sampled ground-truth runtimes
(scheduler plans on estimates, executors run the truth), replicated with
independent draws, and reports mean±CI95 achieved makespans plus the
improvement rate of AHEFT over static HEFT.

Two error families anchor the matrix:

* ``resource_bias`` — systematic per-resource mis-estimation, the
  structure the Predictor/Performance-History loop can actually learn.
  The paper's qualitative claim shows up here: AHEFT's improvement over
  HEFT grows monotonically with the error magnitude (asserted below and
  pinned by the committed CI baseline).
* ``gaussian`` — independent zero-mean noise, the unlearnable control:
  improvements hover near the accurate-estimation level, demonstrating
  that the feedback loop does not chase noise.

The same sweep is runnable from the CLI (``repro mc --error-model …``);
CI generates the quick ledger with ``repro mc --quick`` and gates it
against ``benchmarks/baselines/uncertainty_smoke.json`` via ``repro
compare``.  Run directly (``python benchmarks/bench_uncertainty.py
[--quick]``) or via pytest.
"""

from __future__ import annotations

import sys
from dataclasses import asdict

from _common import WORKERS, publish, run_once

from repro.experiments.config import RandomExperimentConfig
from repro.experiments.reporting import render_uncertainty_matrix
from repro.experiments.sweep import sweep_matrix
from repro.experiments.uncertainty import uncertainty_cell

#: (family, magnitudes) — resource_bias carries the monotone-trend claim
ERROR_GRID = (
    ("resource_bias", (0.0, 0.2, 0.4, 0.6)),
    ("gaussian", (0.0, 0.2, 0.4)),
    ("stragglers", (0.0, 0.1, 0.2)),
)


def run_matrix(*, quick: bool = False):
    base = RandomExperimentConfig(
        v=24 if quick else 40,
        resources=8 if quick else 10,
        seed=0,
    )
    all_points = []
    for family, magnitudes in ERROR_GRID:
        all_points.extend(
            sweep_matrix(
                uncertainty_cell,
                base,
                {"scenario": ("paper",), "magnitude": magnitudes},
                error_model=family,
                strategies=("HEFT", "AHEFT"),
                instances=1 if quick else 2,
                replications=3 if quick else 5,
                workers=WORKERS,
            )
        )
    text = render_uncertainty_matrix(
        all_points,
        strategies=("HEFT", "AHEFT"),
        title="Makespan under stochastic ground-truth runtimes",
    )
    publish(
        "uncertainty",
        text,
        {"points": [asdict(point) for point in all_points]},
    )
    return all_points


def test_uncertainty_matrix(benchmark):
    points = run_once(benchmark, lambda: run_matrix(quick=True))
    bias_rows = [p for p in points if p.error_model == "resource_bias"]
    assert len(bias_rows) >= 3
    # the paper's qualitative claim: AHEFT's improvement over HEFT grows
    # with estimate error when the error has learnable structure
    improvements = [p.improvement for p in bias_rows]
    assert improvements == sorted(improvements), improvements
    assert improvements[-1] > improvements[0] + 0.01
    # zero-magnitude cells degenerate to the accurate-estimation regime:
    # both strategies achieve their planned makespans exactly, so every
    # replication reports the same value (CI width collapses to zero)
    for point in points:
        if point.magnitude == 0:
            for stat in point.stats.values():
                assert stat.max == stat.min
    # the unlearnable control must not collapse: gaussian noise leaves
    # AHEFT within a few percent of HEFT at every magnitude
    for point in points:
        if point.error_model == "gaussian":
            assert point.improvement > -0.10


if __name__ == "__main__":
    run_matrix(quick="--quick" in sys.argv)
