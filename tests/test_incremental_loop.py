"""The closed loop's incremental Performance Monitor against a rebuild.

The monitor half of the grid's loop keeps its state between events: dense
per-job facts that ``advance`` updates from heaps, a joint replay that
re-walks only what a change reaches (and is skipped when nothing it reads
changed), per-workflow heaps of deviation candidates and per-tenant served
totals frozen over the workflows whose consumption is final.  The code
that rebuilt all of it at every event is frozen in
``benchmarks/_seed_reference.py``.  These tests require both to agree:

* a seeded hypothesis walk over one-tenant and several-tenant noisy runs
  (every replanner, ``heft_dup``'s duplicate copies included; ``churn``,
  ``departures`` and ``degradation``; with and without the performance
  profile) that checks, at every event, the facts against a frozen
  monitor driven in lockstep, the projection against a from-scratch
  replay at the event's clock, the next deviation against a full scan and
  the served totals against a full fold;
* ``project_actuals`` with a kept ``ReplayState`` against fresh replays
  while workflows enter, leave, swap plans and change order;
* the state builders (``ExecutionState`` from dense facts, the frame's
  pins, ``repair_schedule``) against their job-by-job versions;
* whole ``repro.run`` runs with the frozen monitor patched in.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from benchmarks._seed_reference import (
    SeedActualExecution,
    seed_frame_pins,
    seed_next_deviation,
    seed_project_actuals,
    seed_repair_schedule,
    seed_replay,
    seed_served_by_tenant,
)
from repro import registry
from repro.core import adaptive as adaptive_module
from repro.core.adaptive import ActualExecution, repair_schedule
from repro.core.history import PerformanceHistoryRepository
from repro.core.multi_tenant import MultiTenantPlanner
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scenarios import materialize
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import (
    FACT_FINISHED,
    FACT_RUNNING,
    ExecutionState,
    TIME_EPS,
)
from repro.scheduling.frame import PartialScheduleFrame
from repro.simulation.shared_grid import SharedGridExecutor
from repro.workflow.costs import PerturbedCostModel
from repro.workload.streams import TenantSpec, WorkloadStream
from tests.test_scheduling_base import _PairwiseCommunicationModel

REPLANNERS = tuple(
    name
    for name in registry.available("scheduler")
    if hasattr(registry.make("scheduler", name), "reschedule")
)
SCENARIOS = ("churn", "departures", "degradation")


def _rows(schedule):
    if schedule is None:
        return None
    return sorted(
        (a.job_id, a.resource_id, a.start.hex(), a.finish.hex())
        for a in schedule.all_assignments()
    )


def _outcome(result):
    """Everything a run decided and executed, bit for bit."""
    raw = result.raw
    outcomes = getattr(raw, "outcomes", None)
    if outcomes is None:  # a single-workflow run
        return (
            _rows(raw.final_schedule),
            [(d.time, d.event, d.previous_makespan, d.candidate_makespan, d.adopted)
             for d in raw.decisions],
            _rows(raw.trace.to_schedule()),
            [(k.job_id, k.resource_id, k.start, k.killed_at) for k in raw.trace.kills],
        )
    return (
        [
            (
                o.key,
                o.completed_at,
                o.dedicated_span,
                o.wasted_work,
                o.killed_jobs,
                _rows(o.schedule),
                _rows(o.actual_schedule),
                [(d.time, d.event, d.previous_makespan, d.candidate_makespan, d.adopted)
                 for d in o.decisions],
            )
            for o in raw.outcomes
        ],
        [(d.time, d.key, d.action) for d in raw.admission],
        sorted(raw.credits.items()),
    )


# ----------------------------------------------------------------------
# at every event: the kept state equals a rebuild
# ----------------------------------------------------------------------
class _Checker:
    """Drives a frozen monitor beside every live one and compares the
    monitor half's state with a rebuild whenever the grid re-arms."""

    def __init__(self, monkeypatch) -> None:
        self.events = 0
        self.skipped = 0
        self._clock = None
        checker = self
        live_track = ActualExecution.track
        live_advance = ActualExecution.advance
        live_forget = ActualExecution.forget
        live_replay = MultiTenantPlanner.replay
        live_next = MultiTenantPlanner.next_deviation

        def shadow(actual):
            if not hasattr(actual, "_shadow"):
                actual._shadow = SeedActualExecution(
                    actual.workflow,
                    actual.costs,
                    actual.truth,
                    perf_profile=actual.perf_profile,
                    history=PerformanceHistoryRepository()
                    if actual.history is not None else None,
                    replan_on_deviation=actual.replan_on_deviation,
                )
            return actual._shadow

        def track(self, projected, updated=None):
            shadow(self).track(dict(projected))
            live_track(self, projected, updated)

        def advance(self, clock):
            shadow(self).advance(clock)
            live_advance(self, clock)

        def forget(self, killed, removed, clock):
            shadow(self).forget(killed, removed, clock)
            live_forget(self, killed, removed, clock)

        def replay(self, clock):
            checker._clock = clock
            stale = self._replay_stale or self._replay.order_dependent
            checker.skipped += not stale
            live_replay(self, clock)

        def next_deviation(self, after):
            found = live_next(self, after)
            checker.check(self, after, found)
            return found

        monkeypatch.setattr(ActualExecution, "track", track)
        monkeypatch.setattr(ActualExecution, "advance", advance)
        monkeypatch.setattr(ActualExecution, "forget", forget)
        monkeypatch.setattr(MultiTenantPlanner, "replay", replay)
        monkeypatch.setattr(MultiTenantPlanner, "next_deviation", next_deviation)

    def check(self, planner, after, found) -> None:
        self.events += 1
        clock = self._clock
        expected = seed_next_deviation(planner, after)
        if expected is None:
            assert found is None
        else:
            assert found is not None
            assert found[0] == expected[0]
            assert [wf.key for wf in found[1]] == [wf.key for wf in expected[1]]
        assert planner._served_by_tenant(clock) == seed_served_by_tenant(planner, clock)
        noisy = sorted(
            (wf for wf in planner.unfinished() if wf.actual is not None), key=lambda wf: wf.seq
        )
        fresh = seed_project_actuals(
            [(wf.workflow, wf.schedule, wf.actual.facts(), wf.actual.truth) for wf in noisy],
            perf_profile=planner.perf_profile,
            clock=clock,
        )
        for wf, projected in zip(noisy, fresh):
            actual = wf.actual
            primaries = {k: a for k, a in projected.items() if not isinstance(k, tuple)}
            duplicates = {k: a for k, a in projected.items() if isinstance(k, tuple)}
            assert actual.projection == primaries, wf.key
            if actual.duplicate_projection or duplicates:
                assert actual.duplicate_projection == duplicates, wf.key
            self._check_facts(actual, clock)

    @staticmethod
    def _check_facts(actual, clock) -> None:
        shadow = actual._shadow
        assert list(actual.started.items()) == list(shadow.started.items())
        assert actual.started_duplicates == shadow.started_duplicates
        jobs = actual.workflow.structure().jobs
        finished = set()
        for i, job in enumerate(jobs):
            code = actual.status[i]
            fact = actual.fact[i]
            if code:
                assert actual.started[job] is fact
                assert (code == FACT_FINISHED) == (fact.finish <= clock + TIME_EPS)
                if code == FACT_FINISHED:
                    finished.add(job)
            else:
                assert fact is None and job not in actual.started
        assert finished == shadow._finished
        if actual.history is not None:
            assert actual.history.records == shadow.history.records
        state = actual.state(clock)
        reference = ExecutionState.from_schedule(actual.started, clock, jobs=jobs)
        assert state == reference


def _multi_inputs(tenants, seed):
    specs = [
        TenantSpec(
            name=f"t{i + 1}",
            arrival_rate=0.004,
            max_arrivals=2,
            v=8,
            parallelism=4,
            mix=(("random", 1.0),),
        )
        for i in range(tenants)
    ]
    return WorkloadStream(specs, seed=seed, horizon=3000.0).arrivals()


class TestEveryEvent:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        tenants=st.sampled_from((1, 3)),
        strategy=st.sampled_from(REPLANNERS),
        scenario=st.sampled_from(SCENARIOS),
        profiled=st.booleans(),
        family=st.sampled_from(("gaussian", "stragglers", "resource_bias")),
        seed=st.integers(0, 50),
    )
    def test_kept_state_equals_a_rebuild(self, tenants, strategy, scenario, profiled, family, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            checker = _Checker(monkeypatch)
            run = materialize(registry.make("scenario", scenario), initial_size=4, seed=seed)
            profile = run.profile if profiled else None
            error = registry.make("error_model", family, magnitude=0.4, seed=seed)
            if tenants == 1:
                case = generate_random_case(RandomDAGParameters(v=14), seed=seed)
                repro.run(
                    case.workflow, run.pool, costs=case.costs, mode="adaptive",
                    strategy=strategy, perf_profile=profile, error_model=error,
                )
            else:
                SharedGridExecutor(
                    _multi_inputs(tenants, seed), run.pool, perf_profile=profile,
                    strategy=strategy, policy="fair_share", error_model=error,
                ).run()
        assert checker.events > 0

    def test_skipped_replays_happen_and_agree(self):
        """A several-tenant run skips replays whose inputs did not change;
        every one of them still matches a from-scratch replay."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            checker = _Checker(monkeypatch)
            run = materialize(registry.make("scenario", "churn"), initial_size=4, seed=2)
            SharedGridExecutor(
                _multi_inputs(3, 2), run.pool, perf_profile=run.profile,
                policy="credit_drf", admission=True,
                error_model=registry.make("error_model", "gaussian", magnitude=0.5, seed=2),
            ).run()
        assert checker.skipped > 0
        assert checker.events > checker.skipped


# ----------------------------------------------------------------------
# a kept replay state against fresh replays, call by call
# ----------------------------------------------------------------------
def _replay_inputs(seed, pairwise):
    """Three workflows, two plans each (on different resources), and their truths."""
    inputs = []
    for k in range(3):
        case = generate_random_case(RandomDAGParameters(v=9, out_degree=0.3), seed=seed + k)
        plans = tuple(
            AHEFTScheduler().schedule(case.workflow, case.costs, pool)
            for pool in (["r0", "r1", "r2"], ["r1", "r2", "r3"])
        )
        truth = PerturbedCostModel(
            case.costs, registry.make("error_model", "gaussian", magnitude=0.5, seed=seed + k)
        )
        if pairwise and k == 1:
            truth = _PairwiseCommunicationModel(truth)
        inputs.append((case.workflow, plans, truth))
    return inputs


class TestKeptReplayState:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 300),
        pairwise=st.booleans(),
        calls=st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=3),
                st.sampled_from((0.0, 0.0, 5.0, 20.0)),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_every_call_equals_a_fresh_replay(self, seed, pairwise, calls):
        """Workflows enter, leave, swap plans and change order between calls;
        the clock only moves forward."""
        inputs = _replay_inputs(seed, pairwise)
        state = adaptive_module.ReplayState()
        clock = 0.0
        for chosen, step in calls:
            clock += step
            entries, seen = [], set()
            for k, version in chosen:
                if k not in seen:
                    seen.add(k)
                    workflow, plans, truth = inputs[k]
                    entries.append((workflow, plans[version], {}, truth))
            kept = adaptive_module.project_actuals(entries, clock=clock, state=state)
            fresh = seed_project_actuals(entries, clock=clock)
            assert [dict(p) for p in kept] == fresh
            assert len(state.updated) == len(entries)


# ----------------------------------------------------------------------
# the state builders
# ----------------------------------------------------------------------
def _noisy_facts(seed, fraction):
    """A plan and the facts its noisy replay has produced by ``fraction``."""
    case = generate_random_case(RandomDAGParameters(v=24), seed=seed)
    resources = [f"r{i}" for i in range(4)]
    plan = AHEFTScheduler().schedule(case.workflow, case.costs, resources)
    truth = PerturbedCostModel(
        case.costs, registry.make("error_model", "gaussian", magnitude=0.5, seed=seed)
    )
    actual = ActualExecution(case.workflow, case.costs, truth)
    (projected,) = adaptive_module.project_actuals([(case.workflow, plan, {}, truth)])
    actual.track(projected)
    clock = max(a.finish for a in projected.values()) * fraction
    actual.advance(clock)
    return case, resources, plan, actual, clock


class TestStateBuilders:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 500), fraction=st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)))
    def test_dense_state_equals_the_job_walk(self, seed, fraction):
        case, resources, plan, actual, clock = _noisy_facts(seed, fraction)
        state = actual.state(clock)
        reference = ExecutionState.from_schedule(actual.started, clock, jobs=case.workflow.jobs)
        assert state == reference
        assert list(state.status) == list(reference.status)
        structure = case.workflow.structure()
        assert state.started_facts(structure) == reference.started_facts(structure)
        # a kill keeps both views in step
        running = [job for job, code in zip(structure.jobs, state.started_facts(structure)[0])
                   if code == FACT_RUNNING]
        for job in running[:1]:
            assert state.restart(job) == reference.restart(job)
            assert state.started_facts(structure) == reference.started_facts(structure)
            assert state == reference
        effective = case.costs
        synced, changed = actual.sync_belief(plan, state, effective)
        seed_synced, seed_changed = SeedActualExecution.sync_belief(
            actual, plan, reference, effective
        )
        assert changed == seed_changed
        if changed:
            assert list(synced) == list(seed_synced)
            assert synced.duplicates == seed_synced.duplicates
        repaired = repair_schedule(
            case.workflow, seed_synced, state, effective, clock=clock, resources=resources
        )
        frozen = seed_repair_schedule(
            case.workflow, seed_synced, reference, effective, clock=clock, resources=resources
        )
        assert [(a.job_id, a.resource_id, a.start, a.finish) for a in repaired] == [
            (a.job_id, a.resource_id, a.start, a.finish) for a in frozen
        ]
        assert repaired.duplicates == frozen.duplicates
        for builder in (state, reference):
            frame = PartialScheduleFrame(
                case.workflow, effective, resources, clock=clock,
                previous_schedule=repaired, execution_state=builder,
            )
            pinned, to_schedule = seed_frame_pins(case.workflow, effective, builder, repaired)
            assert frame.pinned == pinned
            assert list(frame.pinned) == list(pinned)
            assert frame.to_schedule == to_schedule


# ----------------------------------------------------------------------
# whole runs with the frozen monitor patched in
# ----------------------------------------------------------------------
def _patch_frozen_monitor(monkeypatch) -> None:
    monkeypatch.setattr(adaptive_module, "ActualExecution", SeedActualExecution)
    monkeypatch.setattr(adaptive_module, "repair_schedule", seed_repair_schedule)
    monkeypatch.setattr(MultiTenantPlanner, "replay", seed_replay)
    monkeypatch.setattr(MultiTenantPlanner, "next_deviation", seed_next_deviation)
    monkeypatch.setattr(MultiTenantPlanner, "_served_by_tenant", seed_served_by_tenant)


def _multi_run(strategy, scenario, family, admission):
    run = materialize(registry.make("scenario", scenario), initial_size=5, seed=4)
    return repro.run(
        _multi_inputs(3, 9),
        run.pool,
        mode="multi",
        perf_profile=run.profile,
        policy="credit_drf",
        strategy=strategy,
        admission=admission,
        error_model=registry.make("error_model", family, magnitude=0.5, seed=5),
    )


def _single_run(strategy, scenario, family):
    run = materialize(registry.make("scenario", scenario), initial_size=4, seed=6)
    case = generate_random_case(RandomDAGParameters(v=30), seed=6)
    return repro.run(
        case.workflow, run.pool, costs=case.costs, mode="adaptive", strategy=strategy,
        perf_profile=run.profile,
        error_model=registry.make("error_model", family, magnitude=0.5, seed=6),
    )


@pytest.mark.parametrize(
    "strategy,scenario,family,admission",
    [
        ("aheft", "churn", "gaussian", True),
        ("aheft", "degradation", "resource_bias", False),
        ("heft_dup", "departures", "stragglers", True),
        ("cpop", "churn", "lognormal", False),
    ],
)
def test_multi_runs_match_the_frozen_monitor(monkeypatch, strategy, scenario, family, admission):
    live = _outcome(_multi_run(strategy, scenario, family, admission))
    _patch_frozen_monitor(monkeypatch)
    assert _outcome(_multi_run(strategy, scenario, family, admission)) == live


@pytest.mark.parametrize(
    "strategy,scenario,family",
    [
        ("aheft", "churn", "gaussian"),
        ("heft_dup", "churn", "uniform"),
        ("lookahead_heft", "degradation", "gaussian"),
    ],
)
def test_single_runs_match_the_frozen_monitor(monkeypatch, strategy, scenario, family):
    live = _outcome(_single_run(strategy, scenario, family))
    _patch_frozen_monitor(monkeypatch)
    assert _outcome(_single_run(strategy, scenario, family)) == live
