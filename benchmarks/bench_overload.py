"""Overload management: admission control under a flash crowd.

The multi-tenant experiments show what happens when demand exceeds the
shared grid: tail stretch explodes.  This benchmark runs the same
flash-crowd case twice — once open-door, once behind the admission
controller — and reports the overload headline metrics side by side:

* p99 stretch (the tail a tenant actually experiences),
* the exceedance rate over the configured stretch limit,
* rejected / deferred arrivals (the price of the bounded tail),
* deadline and SLO violations against the tenants' service targets,
* the final per-tenant credit scores.

The claim pinned by the ledger: with admission on, the p99 stretch stays
near the configured limit and some arrivals are rejected or deferred;
open-door, every arrival is accepted and the tail blows past the limit.
Everything derives from the seed, so CI regenerates the quick ledger
(``repro run overload -- --quick``) and gates it against
``benchmarks/baselines/overload_smoke.json`` via ``repro compare``.
Run directly (``python benchmarks/bench_overload.py [--quick]``) or via
pytest.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from _common import publish, run_once

from repro.experiments.metrics import exceedance_rate
from repro.experiments.multi_tenant import (
    MultiTenantConfig,
    run_multi_tenant_case,
)

#: the admission knobs of the gated cell (and the exceedance threshold)
STRETCH_LIMIT = 3.0


def _base_config(*, quick: bool) -> MultiTenantConfig:
    return MultiTenantConfig(
        tenants=3,
        arrival_rate=0.02,
        resources=8,
        v=12 if quick else 16,
        parallelism=6 if quick else 8,
        max_arrivals=4 if quick else 6,
        scenario="flash_crowd",
        seed=0,
        slo_stretch=STRETCH_LIMIT,
        deadline_factor=4.0,
    )


def run_overload(*, quick: bool = False):
    base = _base_config(quick=quick)
    cells = {
        "open_door": run_multi_tenant_case(base),
        "admission": run_multi_tenant_case(
            replace(
                base,
                admission=True,
                stretch_limit=STRETCH_LIMIT,
                saturation_threshold=0.8,
                max_deferrals=3,
            )
        ),
    }
    header = (
        f"{'cell':<10} {'wfs':>4} {'p99 str':>8} {'exceed':>7} "
        f"{'rej':>4} {'defer':>6} {'ddl':>4} {'slo':>4} {'min credit':>10}"
    )
    lines = [header, "-" * len(header)]
    data = {}
    for name, cell in cells.items():
        stretches = [o.stretch for o in cell.result.outcomes]
        exceed = exceedance_rate(stretches, STRETCH_LIMIT)
        credits = cell.result.credits
        m = cell.metrics
        lines.append(
            f"{name:<10} {m.workflows:>4} {m.p99_stretch:>8.3f} "
            f"{exceed:>7.2f} {m.rejected:>4} {m.deferrals:>6} "
            f"{m.deadline_violations:>4} {m.slo_violations:>4} "
            f"{min(credits.values()) if credits else 1.0:>10.3f}"
        )
        data[name] = dict(cell.as_dict(), exceedance_rate=exceed)
    publish(
        "overload_smoke",
        "\n".join(lines),
        {"stretch_limit": STRETCH_LIMIT, "cells": data},
    )
    return cells


def test_admission_bounds_the_tail(benchmark):
    cells = run_once(benchmark, lambda: run_overload(quick=True))
    off, on = cells["open_door"].metrics, cells["admission"].metrics
    # open-door, the flash crowd blows the tail past the stretch limit
    assert off.p99_stretch > STRETCH_LIMIT
    assert off.rejected == 0 and off.deferrals == 0
    # admission pays with rejections/deferrals and keeps the tail bounded
    assert on.rejected + on.deferrals > 0
    assert on.p99_stretch < off.p99_stretch
    assert on.p99_stretch <= STRETCH_LIMIT * 1.15
    # every admitted workflow still ran to completion, none twice
    assert on.workflows + on.rejected == off.workflows
    # behaviour scoring ran: credits are well-formed for every tenant
    for cell in cells.values():
        assert all(0.0 < c <= 1.0 for c in cell.result.credits.values())


if __name__ == "__main__":
    run_overload(quick="--quick" in sys.argv)
