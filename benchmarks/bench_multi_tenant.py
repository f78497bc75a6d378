"""Multi-tenant shared grid: concurrent workflow streams under dynamics.

The paper schedules one workflow at a time on a dedicated (if changing)
grid.  This benchmark runs the multi-workflow subsystem instead: several
tenants submit Poisson streams of heterogeneous workflows (random DAGs
plus BLAST / WIEN2K / Montage), every tenant books slots on the *same*
resource timelines, and per-tenant AHEFT replans against the shared
residual capacity whenever the grid changes.  Reported per cell of the
(scenario × policy) matrix: mean and 95th-percentile flow time, mean
stretch, throughput, Jain fairness across tenants, and the wasted work
departures inflicted.

The same matrix is runnable from the CLI (``repro multi --tenants …``);
CI generates the quick ledger with ``repro multi --quick`` and gates it
against ``benchmarks/baselines/multi_tenant_smoke.json`` via ``repro
compare``.  Run directly (``python benchmarks/bench_multi_tenant.py
[--quick]``) or via pytest.
"""

from __future__ import annotations

import sys
from dataclasses import asdict

from _common import publish, run_once

from repro.experiments.multi_tenant import MultiTenantConfig, multi_tenant_cell
from repro.experiments.reporting import render_multi_tenant_matrix
from repro.experiments.sweep import sweep_matrix

SCENARIOS = ("static", "departures", "churn")
POLICIES = ("fifo", "fair_share", "rank_priority")


def run_matrix(*, quick: bool = False):
    base = MultiTenantConfig(
        resources=8 if quick else 10,
        v=16 if quick else 24,
        parallelism=8 if quick else 12,
        max_arrivals=3 if quick else 5,
        seed=0,
    )
    points = sweep_matrix(
        multi_tenant_cell,
        base,
        {
            "scenario": SCENARIOS,
            "tenants": [3 if quick else 4],
            "arrival_rate": [0.004],
            "policy": POLICIES,
        },
    )
    text = render_multi_tenant_matrix(
        points, title="Concurrent tenants on one shared grid"
    )
    publish(
        "multi_tenant",
        text,
        {"points": [asdict(point) for point in points]},
    )
    return points


def test_multi_tenant_matrix(benchmark):
    points = run_once(benchmark, lambda: run_matrix(quick=True))
    by_cell = {(p.scenario, p.policy): p for p in points}
    # contention exists: under FIFO on the static grid the average workflow
    # is slowed down relative to running alone
    assert by_cell[("static", "fifo")].mean_stretch >= 1.0 - 1e-9
    # departures inflict kills whose partial executions are wasted work
    assert by_cell[("departures", "fifo")].wasted_work > 0
    # fairness is a well-formed Jain index on every cell
    for point in points:
        assert 0.0 < point.fairness <= 1.0 + 1e-9
        assert point.workflows > 0


if __name__ == "__main__":
    run_matrix(quick="--quick" in sys.argv)
