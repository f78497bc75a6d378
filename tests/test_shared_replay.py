"""Golden regression for noisy multi-tenant runs of the shared grid.

A few AHEFT multi-tenant runs with sampled ground truth (``gaussian`` and
``resource_bias`` at magnitude 0.3) on membership and performance
scenarios run the grid's closed monitor loop, and every outcome's ``(key,
completed_at, actual_schedule)`` is compared bit for bit against
``tests/goldens/shared_replay.json``.  The same runs check the invariants
of the observed executions: no two executions share a resource slot
(across tenants), every execution lies in its resource's availability
window ``[available_from, available_until)``, respects precedence and
starts no earlier than its booking — bookings are reservations — and a
workflow completes when its last execution does.

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
from repro.scheduling.validation import check_precedence
from repro.simulation.shared_grid import SharedGridExecutor
from repro.workload.streams import TenantSpec, WorkloadStream

GOLDEN_PATH = Path(__file__).parent / "goldens" / "shared_replay.json"

SCENARIOS = ("static", "departures", "churn", "degradation")
ERROR_FAMILIES = ("gaussian", "resource_bias")


def _stream() -> WorkloadStream:
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
    return WorkloadStream(specs, seed=21, horizon=4000.0)


def _run(scenario_name: str, family: str):
    run = materialize(registry.make("scenario", scenario_name), initial_size=5, seed=3)
    result = SharedGridExecutor(
        _stream().arrivals(),
        run.pool,
        perf_profile=run.profile,
        error_model=registry.make("error_model", family, magnitude=0.3, seed=11),
    ).run()
    return result, run.pool


def _assert_replay_invariants(result, pool) -> None:
    cases = {arrival.key: arrival.case for arrival in _stream().arrivals()}
    for outcome in result.outcomes:
        for assignment in outcome.actual_schedule.all_assignments():
            resource = pool.resource(assignment.resource_id)
            where = (outcome.key, assignment.job_id, assignment.resource_id)
            assert assignment.start >= resource.available_from, where
            if resource.available_until is not None:
                assert assignment.finish <= resource.available_until, where
    timelines = {}
    for outcome in result.outcomes:
        actual = outcome.actual_schedule
        case = cases[outcome.key]
        assert sorted(actual.jobs()) == sorted(case.workflow.jobs)
        assert check_precedence(case.workflow, case.costs, actual) == [], outcome.key
        assert outcome.completed_at == actual.makespan()
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
            result, pool = _run(scenario_name, family)
            _assert_replay_invariants(result, pool)
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


def test_noisy_runs_replan_on_deviations():
    """The monitor's deviation trigger fires on the shared grid too."""
    result, _ = _run("static", "gaussian")
    events = [d.event for outcome in result.outcomes for d in outcome.decisions]
    assert "deviation" in events
