"""Tests of the end-to-end benchmark's own machinery, at tiny sizes."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402
import hostclock  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CheckFailed,
    MultiTenantFlash,
    ReplanProbe,
    SingleWorkflow,
    case_seeds,
)

import repro  # noqa: E402

TINY = {
    "adaptive_grow_3k": SingleWorkflow(name="grow", why="", v=40, growth_events=3),
    "uncertain_churn_200": SingleWorkflow(
        name="churn", why="", v=30, scenario="churn", error_model="gaussian"
    ),
    "multi_flash_4t": MultiTenantFlash(
        name="multi", why="", tenants=2, resources=4, max_arrivals=5, v=6, horizon=6000.0
    ),
    "flow_grow_1k": SingleWorkflow(
        name="flow", why="", v=40, strategy="mincost_flow", growth_events=2
    ),
}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_tail_rule_takes_the_highest_level_with_ten_samples_beyond():
    samples = list(range(1, 101))  # 100 samples: p90 leaves exactly 10 beyond
    assert stats.tail_percentile(samples) == (0.9, 90)
    assert stats.beyond(100, 0.9) == 10
    # 99 samples leave only 9 beyond p90, so the tail falls back to p75
    level, value = stats.tail_percentile(list(range(1, 100)))
    assert level == 0.75 and stats.beyond(99, 0.75) >= 10
    assert value == stats.percentile(list(range(1, 100)), 0.75)
    # too few samples for any tail level: the median
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (0.5, 2.0)


def test_percentile_is_nearest_rank():
    assert stats.percentile([5, 1, 4, 2, 3], 0.5) == 3
    assert stats.percentile([5, 1, 4, 2, 3], 1.0) == 5
    assert stats.percentile([7], 0.9) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.2]
    q1, median, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / median)


# ----------------------------------------------------------------------
# host normalisation
# ----------------------------------------------------------------------
def test_normalise_divides_by_the_mean_of_the_adjacent_references():
    nominal = hostclock.NOMINAL_REFERENCE_S
    # references at the nominal speed leave the timing unchanged
    assert hostclock.normalise(2.0, nominal, nominal) == pytest.approx(2.0)
    # a host twice as slow (references take twice as long) halves it
    assert hostclock.normalise(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    # the mean of the two references, not either one
    assert hostclock.normalise(3.0, nominal, 2 * nominal) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hostclock.normalise(1.0, 0.0, nominal)


def test_reference_work_is_fixed():
    assert hostclock.reference_work(5000) == hostclock.reference_work(5000)
    assert hostclock.measure_reference() > 0


def test_iteration_timings_use_their_own_references():
    nominal = hostclock.NOMINAL_REFERENCE_S
    iteration = bench.Iteration(
        case_seed=0,
        setup_raw_s=1.0,
        run_raw_s=4.0,
        references=(nominal, 3 * nominal, nominal),
        replans_raw_s=[0.2],
        outcome=None,
        sizes={},
    )
    assert iteration.setup_s == pytest.approx(0.5)
    assert iteration.run_s == pytest.approx(2.0)
    assert iteration.replans_s == [pytest.approx(0.1)]


# ----------------------------------------------------------------------
# workloads and their checks
# ----------------------------------------------------------------------
def test_case_list_depends_on_the_seed_only():
    assert case_seeds("w", 3, 4) == case_seeds("w", 3, 4)
    assert case_seeds("w", 3, 4) != case_seeds("w", 4, 4)
    assert case_seeds("w", 3, 2) == case_seeds("w", 3, 4)[:2]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_check_and_repeats_exactly(name):
    workload = TINY[name]
    first = bench.run_iteration(workload, 11)
    again = bench.run_iteration(workload, 11)
    assert first.outcome.fingerprint == again.outcome.fingerprint
    assert first.outcome.makespan > 0
    assert first.replans_raw_s, "the probe saw no reschedule call"
    session = bench.Session(attempted=2)
    bench.check_repeat(session, first, again, "repeat")
    assert not session.problems


def test_every_full_size_workload_has_a_tiny_twin():
    assert set(TINY) == set(bench.WORKLOADS)


def _multi_case():
    workload = TINY["multi_flash_4t"]
    inputs = workload.setup(5)
    result = workload.run(inputs, ReplanProbe())
    workload.check(inputs, result)
    return workload, inputs, result


def _with_outcomes(result, outcomes):
    raw = dataclasses.replace(result.raw, outcomes=outcomes)
    return repro.RunResult(mode=result.mode, strategy=result.strategy, raw=raw)


def test_multi_check_catches_an_overlapping_booking():
    workload, inputs, result = _multi_case()
    outcomes = result.raw.outcomes
    assert len(outcomes) >= 2
    # the second workflow books exactly the slots of the first
    clash = dataclasses.replace(outcomes[1], schedule=outcomes[0].schedule)
    corrupted = _with_outcomes(result, [outcomes[0], clash, *outcomes[2:]])
    with pytest.raises(CheckFailed, match="overlap"):
        workload.check(inputs, corrupted)


def test_multi_check_catches_a_lost_arrival():
    workload, inputs, result = _multi_case()
    corrupted = _with_outcomes(result, result.raw.outcomes[1:])
    with pytest.raises(CheckFailed, match="exactly once"):
        workload.check(inputs, corrupted)


def test_multi_check_catches_a_completion_before_arrival():
    workload, inputs, result = _multi_case()
    outcomes = result.raw.outcomes
    early = dataclasses.replace(outcomes[0], completed_at=outcomes[0].arrival_time - 1.0)
    corrupted = _with_outcomes(result, [early, *outcomes[1:]])
    with pytest.raises(CheckFailed, match="before arriving"):
        workload.check(inputs, corrupted)


def test_single_check_catches_an_infeasible_schedule():
    workload = TINY["adaptive_grow_3k"]
    inputs = workload.setup(3)
    result = workload.run(inputs, ReplanProbe())
    # checked against a pool that has lost every late-joining resource
    shrunk = dataclasses.replace(
        inputs, pool=inputs.pool.restricted_to(inputs.pool.initial_resources())
    )
    assert len(shrunk.pool) < len(inputs.pool)
    with pytest.raises(CheckFailed):
        workload.check(shrunk, result)


def test_a_non_deterministic_repeat_fails():
    workload = TINY["uncertain_churn_200"]
    first = bench.run_iteration(workload, 2)
    other = bench.run_iteration(workload, 3)
    session = bench.Session(attempted=2)
    bench.check_repeat(session, first, dataclasses.replace(other, case_seed=2), "repeat")
    assert session.failed == 1 and session.problems


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_hooks_are_removed_and_self_times_add_up():
    from repro.scheduling import heft
    from repro.scheduling.aheft import AHEFTScheduler
    from repro.workflow import analysis

    ranks, reschedule = analysis.upward_ranks, AHEFTScheduler.__dict__["reschedule"]
    workload = TINY["uncertain_churn_200"]
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer):
        # names imported into other modules are hooked as well
        assert heft.upward_ranks is not ranks
        assert analysis.upward_ranks is heft.upward_ranks
        traced = bench.run_iteration(workload, 4, tracer)
    assert analysis.upward_ranks is ranks and heft.upward_ranks is ranks
    assert AHEFTScheduler.__dict__["reschedule"] is reschedule

    (setup_self, _), (run_self, run_calls) = traced.layers
    assert sum(setup_self.values()) == pytest.approx(traced.setup_raw_s, rel=bench.SELF_TIME_TOLERANCE)
    assert sum(run_self.values()) == pytest.approx(traced.run_raw_s, rel=bench.SELF_TIME_TOLERANCE)
    assert run_calls["scheduling.reschedule"] == len(traced.replans_raw_s)
    assert run_calls["core.truth_replay"] >= 1

    untraced = bench.run_iteration(workload, 4)
    assert untraced.outcome.fingerprint == traced.outcome.fingerprint
    assert untraced.layers is None


def test_tracer_attributes_child_time_to_the_child():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def child():
        return "done"

    def parent():
        return tracer.call("child", child)

    assert tracer.call("parent", parent) == "done"
    self_s, calls = tracer.take()
    # parent: 0 -> 3 (3 ticks), child: 1 -> 2 (1 tick)
    assert self_s == {"parent": 2.0, "child": 1.0}
    assert calls == {"parent": 1, "child": 1}
    assert tracer.take() == ({}, {})


def test_benchmark_json_lists_every_metric_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in bench.PER_LAYER
    ]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in bench.WORKLOADS.values()
    ]
