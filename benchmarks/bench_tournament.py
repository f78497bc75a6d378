"""Strategy tournament: every registered scheduler × scenario × uncertainty.

The paper compares three strategies; the strategy registry makes the
comparison a *tournament*.  Every cell of the matrix runs the same
workloads under one scenario of grid dynamics and one estimate-error
magnitude (``resource_bias`` — the learnable structure the adaptive
loop's Predictor exploits), for every competing strategy:

* the paper's trio — static ``heft``, adaptive ``aheft``, dynamic
  ``minmin`` — plus
* the dynamic batch baselines ``maxmin`` and ``sufferage``,
* the HEFT-family newcomers ``cpop``, ``lookahead_heft`` and
  ``heft_dup``,
* the flow-based ``mincost_flow`` (Firmament-style min-cost max-flow
  placement per ready wave).

Reported per cell: the mean achieved makespan of each strategy (achieved
— the scheduler plans on estimates, the grid executes sampled truths)
and the cell winner.  A leaderboard aggregates makespans normalised by
plain HEFT's cell mean, so "1.00" reads as "ties static HEFT".

Everything is deterministic in the seed, so the quick matrix doubles as
a CI regression gate: ``repro run tournament -- --quick`` writes
``benchmarks/results/tournament_smoke.json`` and CI compares it against
the committed ``benchmarks/baselines/tournament_smoke.json`` via
``repro compare``.  Run directly (``python benchmarks/bench_tournament.py
[--quick]``) or via pytest.
"""

from __future__ import annotations

import sys
from dataclasses import asdict

from _common import WORKERS, publish, run_once

from repro.experiments.config import RandomExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.sweep import sweep_matrix
from repro.experiments.uncertainty import uncertainty_cell

#: the competitors, in presentation order (all names from the registry)
STRATEGIES = (
    "heft",
    "aheft",
    "cpop",
    "lookahead_heft",
    "heft_dup",
    "minmin",
    "maxmin",
    "sufferage",
    "mincost_flow",
)

SCENARIOS = ("static", "paper", "departures")
MAGNITUDES = (0.0, 0.4)
ERROR_MODEL = "resource_bias"


def render_tournament(points) -> str:
    headers = ["scenario", "error"] + [s for s in STRATEGIES] + ["winner"]
    rows = []
    for point in points:
        means = point.mean_makespans
        winner = min(STRATEGIES, key=lambda s: (means[s], s))
        rows.append(
            [point.scenario, f"{point.magnitude:g}"]
            + [f"{means[s]:.1f}" for s in STRATEGIES]
            + [winner]
        )
    return format_table(headers, rows)


def leaderboard(points) -> dict:
    """Mean HEFT-normalised makespan and cell wins per strategy."""
    norms = {s: [] for s in STRATEGIES}
    wins = {s: 0 for s in STRATEGIES}
    for point in points:
        means = point.mean_makespans
        baseline = means["heft"]
        for s in STRATEGIES:
            norms[s].append(means[s] / baseline)
        wins[min(STRATEGIES, key=lambda s: (means[s], s))] += 1
    return {
        s: {
            "mean_vs_heft": sum(norms[s]) / len(norms[s]),
            "wins": wins[s],
        }
        for s in STRATEGIES
    }


def render_leaderboard(board) -> str:
    ordered = sorted(board, key=lambda s: board[s]["mean_vs_heft"])
    rows = [
        [s, f"{board[s]['mean_vs_heft']:.3f}", board[s]["wins"]] for s in ordered
    ]
    return format_table(["strategy", "mean makespan vs HEFT", "cell wins"], rows)


def run_matrix(*, quick: bool = False):
    # a deliberately tight initial pool: the join-only "paper" scenario then
    # actually differentiates from "static" (late arrivals relieve real
    # contention instead of idling)
    base = RandomExperimentConfig(
        v=24 if quick else 36,
        resources=4 if quick else 6,
        seed=0,
    )
    points = sweep_matrix(
        uncertainty_cell,
        base,
        {"scenario": SCENARIOS, "magnitude": MAGNITUDES},
        error_model=ERROR_MODEL,
        strategies=STRATEGIES,
        instances=1 if quick else 2,
        replications=2 if quick else 3,
        workers=WORKERS,
    )
    board = leaderboard(points)
    text = (
        "Strategy tournament (mean achieved makespan per cell)\n"
        + render_tournament(points)
        + "\n\nLeaderboard (normalised by static HEFT)\n"
        + render_leaderboard(board)
    )
    publish(
        "tournament_smoke" if quick else "tournament",
        text,
        {
            "strategies": list(STRATEGIES),
            "scenarios": list(SCENARIOS),
            "error_model": ERROR_MODEL,
            "magnitudes": [float(m) for m in MAGNITUDES],
            "points": [asdict(point) for point in points],
            "leaderboard": board,
        },
    )
    return points, board


def test_tournament_matrix(benchmark):
    points, board = run_once(benchmark, lambda: run_matrix(quick=True))
    assert len(points) == len(SCENARIOS) * len(MAGNITUDES)
    # every competitor finishes every cell with a positive makespan
    for point in points:
        for strategy in STRATEGIES:
            assert point.stats[strategy].mean > 0
    # the HEFT family stays a family: cpop and lookahead_heft land within
    # a loose band of plain HEFT on aggregate (sanity, not performance)
    assert 0.6 <= board["cpop"]["mean_vs_heft"] <= 1.8
    assert 0.7 <= board["lookahead_heft"]["mean_vs_heft"] <= 1.4
    # duplication executes as planned: at zero noise heft_dup matches or
    # beats plain HEFT (its duplicates are adopted only on strict EFT
    # improvement and the executor runs them as real work); on aggregate it
    # stays within a loose band (estimate error erodes dup-optimistic plans)
    zero_noise = [p for p in points if p.magnitude == 0]
    assert zero_noise
    for point in zero_noise:
        assert point.mean_makespans["heft_dup"] <= point.mean_makespans["heft"] + 1e-6
    assert board["heft_dup"]["mean_vs_heft"] <= 1.25
    # adaptivity pays under dynamics: with departures and biased estimates,
    # AHEFT beats static HEFT on the cell means
    hostile = [
        p for p in points if p.scenario == "departures" and p.magnitude > 0
    ]
    assert hostile
    for point in hostile:
        assert point.mean_makespans["aheft"] <= point.mean_makespans["heft"]


if __name__ == "__main__":
    run_matrix(quick="--quick" in sys.argv)
