"""Golden regression for the noisy shared-grid truth replay.

A few AHEFT multi-tenant runs with sampled ground truth (``gaussian`` and
``resource_bias`` at magnitude 0.3) on membership and performance
scenarios are replayed, and every outcome's ``(key, completed_at,
actual_schedule)`` is compared bit for bit against
``tests/goldens/shared_replay.json``.  The same runs check two invariants
of the replayed actuals: no two executions share a resource slot (across
tenants) and no execution starts before its booking — bookings are
reservations.

If a change *intentionally* alters the replay, regenerate with

    pytest tests/test_shared_replay.py --regen-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import registry
from repro.scenarios import materialize
from repro.scheduling.base import ResourceTimeline
from repro.simulation.shared_grid import SharedGridExecutor
from repro.workload.streams import TenantSpec, WorkloadStream

GOLDEN_PATH = Path(__file__).parent / "goldens" / "shared_replay.json"

SCENARIOS = ("static", "departures", "churn", "degradation")
ERROR_FAMILIES = ("gaussian", "resource_bias")


def _run(scenario_name: str, family: str):
    specs = [
        TenantSpec(
            name=f"t{i + 1}",
            arrival_rate=0.004,
            max_arrivals=2,
            v=12,
            parallelism=6,
            mix=(("random", 0.7), ("blast", 0.3)),
        )
        for i in range(3)
    ]
    stream = WorkloadStream(specs, seed=21, horizon=4000.0)
    run = materialize(registry.make("scenario", scenario_name), initial_size=5, seed=3)
    return SharedGridExecutor(
        stream.arrivals(),
        run.pool,
        perf_profile=run.profile,
        error_model=registry.make("error_model", family, magnitude=0.3, seed=11),
    ).run()


def _assert_replay_invariants(result) -> None:
    timelines = {}
    for outcome in result.outcomes:
        actual = outcome.actual_schedule
        for assignment in actual.all_assignments():
            timeline = timelines.setdefault(
                assignment.resource_id, ResourceTimeline(assignment.resource_id)
            )
            # raises ValueError if two executions ever share a slot
            timeline.occupy(
                assignment.start, assignment.finish, f"{outcome.key}:{assignment.job_id}"
            )
        for assignment in actual:
            booked = outcome.schedule.assignment(assignment.job_id)
            assert assignment.resource_id == booked.resource_id
            assert assignment.start >= booked.start, (outcome.key, assignment.job_id)
        booked_copies = {
            (d.job_id, d.resource_id): d.start for d in outcome.schedule.duplicates
        }
        for duplicate in actual.duplicates:
            assert duplicate.start >= booked_copies[(duplicate.job_id, duplicate.resource_id)]


def test_noisy_shared_replay_matches_golden(request):
    actual = {}
    for scenario_name in SCENARIOS:
        for family in ERROR_FAMILIES:
            result = _run(scenario_name, family)
            _assert_replay_invariants(result)
            actual[f"{scenario_name}/{family}"] = [
                [o.key, o.completed_at, o.actual_schedule.to_dict()]
                for o in result.outcomes
            ]
    if request.config.getoption("--regen-goldens"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(actual, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(actual) == sorted(golden)
    for case in sorted(actual):
        assert actual[case] == golden[case], f"{case}: replay drifted from the golden"
