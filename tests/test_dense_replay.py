"""Differential tests of the per-trigger steps of uncertain mode.

:func:`repro.core.adaptive.repair_schedule` and
:func:`repro.core.adaptive.project_actuals` walk dense structure ids and
read ``c̄``/durations from the cost models' dense views.  Their name-keyed,
per-pair-priced versions are frozen in ``benchmarks/_seed_reference.py``
(:func:`scalar_repair_schedule`, :func:`scalar_project_actuals`); over
random DAGs, error models and execution snapshots both must return the
same schedules and replay dicts, float for float and in the same order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._seed_reference import scalar_project_actuals, scalar_repair_schedule
from repro.core.adaptive import project_actuals, repair_schedule
from repro.core.history import PerformanceHistoryRepository
from repro.core.predictor import HistoryAdjustedCostModel
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scenarios.base import PerformanceProfile, ScaledCostModel
from repro.scheduling.base import TIME_EPS, ExecutionState, Schedule
from repro.scheduling.registry import make_scheduler
from repro.workflow.costs import PerturbedCostModel, available_error_models, make_error_model
from tests.test_scheduling_base import _PairwiseCommunicationModel

RESOURCES = ["r1", "r2", "r3", "r4"]
STRATEGIES = ("heft", "heft_dup")
#: estimate views a trigger can repair under: ``uncached`` has no cache
#: token, ``pairwise`` has resource-pair transfers, ``foreign`` prices a
#: structurally identical copy of the workflow
REPAIR_MODELS = ("prior", "scaled", "uncached", "pairwise", "foreign")


def _case(v, seed, out_degree):
    params = RandomDAGParameters(
        v=v, out_degree=out_degree, ccr=1.5, beta=0.8, omega_dag=50.0
    )
    return generate_random_case(params, seed=seed)


def _plan(case, strategy):
    return make_scheduler(strategy).schedule(case.workflow, case.costs, RESOURCES)


def _truth(case, family, magnitude, seed, pairwise):
    truth = PerturbedCostModel(case.costs, make_error_model(family, magnitude, seed=seed))
    return _PairwiseCommunicationModel(truth) if pairwise else truth


def _profile(plan, factor):
    if factor is None:
        return None
    profile = PerformanceProfile()
    profile.set_factor("r2", plan.makespan() * 0.3, factor)
    return profile


def _flat(actuals):
    """Replay dicts as comparable lists: keys, resources and float bits."""
    return [
        [(key, a.resource_id, a.start.hex(), a.finish.hex()) for key, a in replay.items()]
        for replay in actuals
    ]


def _flat_schedule(schedule):
    return (
        schedule.name,
        [(a.job_id, a.resource_id, a.start.hex(), a.finish.hex()) for a in schedule],
        [(a.job_id, a.resource_id, a.start.hex(), a.finish.hex()) for a in schedule.duplicates],
    )


def _both_replays(entries, profile):
    """Run both replays; a stall must be a stall in both."""
    outcomes = []
    for replay in (project_actuals, scalar_project_actuals):
        try:
            outcomes.append(_flat(replay(entries, perf_profile=profile)))
        except ValueError as exc:
            outcomes.append(str(exc))
    return outcomes


def _started(case, plan, truth, profile, fraction):
    """Ground truth of every execution dispatched by ``fraction`` of the run."""
    (actuals,) = project_actuals([(case.workflow, plan, {}, truth)], perf_profile=profile)
    clock = max(a.finish for a in actuals.values()) * fraction
    return clock, {key: a for key, a in actuals.items() if a.start <= clock + TIME_EPS}


replay_cases = st.fixed_dictionaries(
    {
        "v": st.integers(min_value=2, max_value=28),
        "seed": st.integers(min_value=0, max_value=10_000),
        "out_degree": st.sampled_from([0.1, 0.25, 0.5]),
        "strategy": st.sampled_from(STRATEGIES),
        "family": st.sampled_from(available_error_models()),
        "magnitude": st.sampled_from([0.0, 0.2, 0.5]),
        "pairwise": st.booleans(),
        "factor": st.sampled_from([None, 0.5, 2.0]),
        "fraction": st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    }
)


class TestProjectActuals:
    @settings(max_examples=60, deadline=None)
    @given(params=replay_cases)
    def test_one_entry_matches_the_scalar_replay(self, params):
        case = _case(params["v"], params["seed"], params["out_degree"])
        plan = _plan(case, params["strategy"])
        truth = _truth(
            case, params["family"], params["magnitude"], params["seed"], params["pairwise"]
        )
        profile = _profile(plan, params["factor"])
        _, started = _started(case, plan, truth, profile, params["fraction"])
        dense, scalar = _both_replays([(case.workflow, plan, started, truth)], profile)
        assert dense == scalar

    @settings(max_examples=30, deadline=None)
    @given(first=replay_cases, second=replay_cases)
    def test_two_entry_shared_replay_matches_in_both_orders(self, first, second):
        entries = []
        for index, params in enumerate((first, second)):
            case = _case(params["v"], params["seed"] + index, params["out_degree"])
            plan = _plan(case, params["strategy"])
            truth = _truth(
                case, params["family"], params["magnitude"], params["seed"], params["pairwise"]
            )
            _, started = _started(case, plan, truth, None, params["fraction"])
            entries.append((case.workflow, plan, started, truth))
        profile = _profile(entries[0][1], first["factor"])
        for ordered in (entries, entries[::-1]):
            dense, scalar = _both_replays(ordered, profile)
            assert dense == scalar

    def test_pairwise_truth_prices_crossings_per_pair(self):
        case = _case(24, 3, 0.4)
        plan = _plan(case, "heft")
        truth = _truth(case, "gaussian", 0.0, 3, pairwise=True)
        dense, scalar = _both_replays([(case.workflow, plan, {}, truth)], None)
        assert dense == scalar
        # per-pair transfers differ from c̄, so the plan does not replay as booked
        assert dense != _flat([{a.job_id: a for a in plan}])

    def test_started_duplicates_feed_their_local_consumers(self):
        for seed in range(40):
            case = _case(20, seed, 0.4)
            plan = _plan(case, "heft_dup")
            if not plan.duplicates:
                continue
            truth = _truth(case, "lognormal", 0.3, seed, pairwise=False)
            _, started = _started(case, plan, truth, None, 0.5)
            if not any(isinstance(key, tuple) for key in started):
                continue
            dense, scalar = _both_replays([(case.workflow, plan, started, truth)], None)
            assert dense == scalar
            return
        pytest.fail("no heft_dup plan with a started duplicate in 40 seeds")


def _repair_costs(case, kind, factor):
    costs = case.costs
    if kind == "scaled":
        return ScaledCostModel(costs, {"r1": factor, "g1": 1.0 / factor})
    if kind == "uncached":
        return HistoryAdjustedCostModel(costs, PerformanceHistoryRepository())
    if kind == "pairwise":
        return _PairwiseCommunicationModel(costs)
    return costs


def _snapshot(case, plan, truth, fraction):
    """``(clock, state)``: the plan executed under ``truth`` up to the clock."""
    clock, started = _started(case, plan, truth, None, fraction)
    executed = Schedule(name="actual")
    for key, assignment in started.items():
        if isinstance(key, str):
            executed.add(assignment)
    return clock, ExecutionState.from_schedule(executed, clock, jobs=case.workflow.jobs)


repair_cases = st.fixed_dictionaries(
    {
        "v": st.integers(min_value=2, max_value=28),
        "seed": st.integers(min_value=0, max_value=10_000),
        "out_degree": st.sampled_from([0.1, 0.25, 0.5]),
        "strategy": st.sampled_from(STRATEGIES),
        "family": st.sampled_from(available_error_models()),
        "magnitude": st.sampled_from([0.0, 0.3]),
        "model": st.sampled_from(REPAIR_MODELS),
        "factor": st.sampled_from([0.5, 1.5, 3.0]),
        "fraction": st.sampled_from([0.0, 0.15, 0.4, 0.7, 1.0]),
        "departed": st.lists(st.sampled_from(RESOURCES), max_size=2, unique=True),
        "joined": st.booleans(),
        "replanned": st.booleans(),
    }
)


class TestRepairSchedule:
    @settings(max_examples=80, deadline=None)
    @given(params=repair_cases)
    def test_matches_the_scalar_repair(self, params):
        case = _case(params["v"], params["seed"], params["out_degree"])
        plan = _plan(case, params["strategy"])
        truth = _truth(case, params["family"], params["magnitude"], params["seed"], False)
        clock, state = _snapshot(case, plan, truth, params["fraction"])
        resources = [rid for rid in RESOURCES if rid not in params["departed"]]
        if params["joined"]:
            resources.append("g1")
        costs = _repair_costs(case, params["model"], params["factor"])
        workflow = case.workflow
        if params["model"] == "foreign":
            workflow = workflow.subgraph(workflow.jobs, name=workflow.name)
        if params["replanned"]:
            # a plan that maps executed jobs elsewhere than they ran: their
            # consumers must read the executed resource
            plan = _plan(case, "olb")
        kwargs = dict(clock=clock, resources=resources)
        dense = repair_schedule(workflow, plan, state, costs, **kwargs)
        scalar = scalar_repair_schedule(workflow, plan, state, costs, **kwargs)
        assert _flat_schedule(dense) == _flat_schedule(scalar)

    def test_departed_mapping_keeps_its_stale_times(self):
        case = _case(24, 11, 0.3)
        plan = _plan(case, "heft")
        truth = _truth(case, "gaussian", 0.3, 11, False)
        clock, state = _snapshot(case, plan, truth, 0.3)
        stranded = [
            a for a in plan if a.resource_id == "r1" and state.is_not_started(a.job_id)
        ]
        assert stranded
        costs = ScaledCostModel(case.costs, {"r2": 2.0})
        kwargs = dict(clock=clock, resources=["r2", "r3", "r4"])
        dense = repair_schedule(case.workflow, plan, state, costs, **kwargs)
        scalar = scalar_repair_schedule(case.workflow, plan, state, costs, **kwargs)
        assert _flat_schedule(dense) == _flat_schedule(scalar)
        for assignment in stranded:
            assert dense.get(assignment.job_id) == assignment

    def test_historical_duplicates_kept_and_future_ones_dropped(self):
        for seed in range(40):
            case = _case(20, seed, 0.4)
            plan = _plan(case, "heft_dup")
            if len(plan.duplicates) < 2:
                continue
            starts = sorted(d.start for d in plan.duplicates)
            clock = (starts[0] + starts[-1]) / 2.0
            if not starts[0] <= clock < starts[-1]:
                continue
            state = ExecutionState.from_schedule(plan, clock, jobs=case.workflow.jobs)
            costs = ScaledCostModel(case.costs, {"r3": 1.7})
            kwargs = dict(clock=clock, resources=RESOURCES)
            dense = repair_schedule(case.workflow, plan, state, costs, **kwargs)
            scalar = scalar_repair_schedule(case.workflow, plan, state, costs, **kwargs)
            assert _flat_schedule(dense) == _flat_schedule(scalar)
            assert 0 < len(dense.duplicates) < len(plan.duplicates)
            return
        pytest.fail("no heft_dup plan with past and future duplicates in 40 seeds")
