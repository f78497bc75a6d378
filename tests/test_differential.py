"""Differential test harness (ISSUE-3 bit-identity, ISSUE-4 zero noise).

Three families of guarantees, checked on hypothesis-driven random cases:

* **Bit-identity** — a single tenant submitting a single workflow at time 0
  to the :class:`~repro.simulation.shared_grid.SharedGridExecutor` is the
  degenerate multi-tenant run, and must reproduce the existing
  single-workflow executor (``repro.run(..., mode="adaptive")``)
  *exactly*: same final schedule, same makespan, same wasted work, same
  decision stream — under every registered scenario and every interleave
  policy.  This pins the multi-tenant subsystem to the paper-validated
  code path.

* **Invariants** — every scheduler's output passes the feasibility
  invariants of :mod:`repro.scheduling.validation` under random scenarios:
  no overlapping assignments on a resource, precedence respected including
  communication delays, and resources only used inside their availability
  windows.  For multi-tenant runs the cross-workflow exclusivity invariant
  is additionally re-checked by booking every tenant's final schedule onto
  one shared timeline per resource.

* **Zero noise** — every executor with the uncertainty engine's
  :class:`~repro.workflow.costs.ErrorModel` at magnitude 0 is
  bit-identical to the same executor with no error model: same schedules,
  same makespans, same wasted work, same adaptive decision stream — under
  every registered scenario.  For the adaptive loop this pins its full
  truth replay to its exact case (no truth model, no predictor), which is
  the paper's accurate-estimation setting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import registry
from repro.core.multi_tenant import POLICIES
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scenarios import materialize
from repro.scheduling.validation import (
    check_no_overlap,
    check_precedence,
    validate_schedule,
)
from repro.simulation.shared_grid import SharedGridExecutor
from repro.workload.streams import TenantSpec, WorkflowArrival, WorkloadStream

#: scenarios whose dynamics are pool-membership only (no perf factors) —
#: the strict cross-tenant exclusivity check applies to these; after a
#: perf change independently repaired plans may transiently contend (see
#: repro.core.multi_tenant) so perf scenarios are exercised for
#: per-schedule invariants but not for joint-timeline exclusivity.
MEMBERSHIP_SCENARIOS = ("static", "paper", "departures", "churn", "join_burst", "flash_crowd")

#: every registered strategy that can drive the adaptive loop
REPLANNERS = [
    name
    for name in registry.available("scheduler")
    if hasattr(registry.make("scheduler", name), "reschedule")
]


def _case(v: int, seed: int):
    params = RandomDAGParameters(v=v, out_degree=0.2, ccr=1.0, beta=0.5, omega_dag=300.0)
    return generate_random_case(params, seed=seed)


def _single_arrival(case) -> WorkflowArrival:
    return WorkflowArrival(
        tenant="t1", index=0, time=0.0, kind="random", case=case, seq=0
    )


def _assert_bit_identical(case, scenario_name: str, initial: int, seed: int, policy: str):
    run_a = materialize(registry.make("scenario", scenario_name), initial_size=initial, seed=seed)
    single = repro.run(
        case.workflow, run_a.pool, costs=case.costs, mode="adaptive", perf_profile=run_a.profile
    ).raw
    run_b = materialize(registry.make("scenario", scenario_name), initial_size=initial, seed=seed)
    shared = SharedGridExecutor(
        [_single_arrival(case)],
        run_b.pool,
        perf_profile=run_b.profile,
        policy=policy,
    ).run()
    assert len(shared.outcomes) == 1
    outcome = shared.outcomes[0]
    assert outcome.schedule.to_dict() == single.final_schedule.to_dict()
    assert outcome.completed_at == single.makespan
    assert outcome.wasted_work == single.wasted_work
    assert outcome.killed_jobs == single.killed_jobs
    assert [
        (d.time, d.event, d.adopted, d.forced) for d in outcome.decisions
    ] == [(d.time, d.event, d.adopted, d.forced) for d in single.decisions]


class TestSingleTenantBitIdentity:
    """Degenerate multi-tenancy must equal the paper's single-workflow loop."""

    @pytest.mark.parametrize("scenario_name", registry.available("scenario"))
    def test_every_registered_scenario(self, scenario_name):
        case = _case(v=24, seed=17)
        _assert_bit_identical(case, scenario_name, initial=6, seed=5, policy="fifo")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_degenerates(self, policy):
        case = _case(v=20, seed=3)
        _assert_bit_identical(case, "departures", initial=5, seed=9, policy=policy)

    @settings(max_examples=15, deadline=None)
    @given(
        v=st.integers(min_value=8, max_value=36),
        case_seed=st.integers(min_value=0, max_value=10**6),
        scenario_name=st.sampled_from(sorted(registry.available("scenario"))),
        initial=st.integers(min_value=3, max_value=10),
        scenario_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_random_cases(self, v, case_seed, scenario_name, initial, scenario_seed):
        case = _case(v=v, seed=case_seed)
        _assert_bit_identical(
            case, scenario_name, initial=initial, seed=scenario_seed, policy="fifo"
        )


class TestSchedulerInvariantsUnderScenarios:
    """Every strategy's output stays feasible under random dynamics."""

    @settings(max_examples=12, deadline=None)
    @given(
        v=st.integers(min_value=8, max_value=30),
        case_seed=st.integers(min_value=0, max_value=10**6),
        scenario_name=st.sampled_from(sorted(registry.available("scenario"))),
        scenario_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_adaptive_schedule_is_feasible(
        self, v, case_seed, scenario_name, scenario_seed
    ):
        case = _case(v=v, seed=case_seed)
        run = materialize(
            registry.make("scenario", scenario_name), initial_size=6, seed=scenario_seed
        )
        result = repro.run(
            case.workflow, run.pool, costs=case.costs, mode="adaptive", perf_profile=run.profile
        ).raw
        # precedence + communication delay + no overlap + availability
        validate_schedule(
            case.workflow,
            case.costs,
            result.final_schedule,
            pool=run.pool,
        )

    @settings(max_examples=8, deadline=None)
    @given(
        v=st.integers(min_value=8, max_value=24),
        case_seed=st.integers(min_value=0, max_value=10**6),
        scenario_name=st.sampled_from(sorted(MEMBERSHIP_SCENARIOS)),
        scenario_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_static_and_dynamic_traces_are_feasible(
        self, v, case_seed, scenario_name, scenario_seed
    ):
        case = _case(v=v, seed=case_seed)
        run = materialize(
            registry.make("scenario", scenario_name), initial_size=6, seed=scenario_seed
        )
        for mode in ("static", "dynamic"):
            result = repro.run(
                case.workflow, run.pool, costs=case.costs, mode=mode,
                perf_profile=run.profile,
            ).raw
            schedule = (
                result.trace.to_schedule()
                if result.trace is not None
                else result.final_schedule
            )
            assert check_no_overlap(schedule) == []
            assert check_precedence(case.workflow, case.costs, schedule) == []

    @settings(max_examples=8, deadline=None)
    @given(
        tenants=st.integers(min_value=1, max_value=4),
        scenario_name=st.sampled_from(sorted(MEMBERSHIP_SCENARIOS)),
        seed=st.integers(min_value=0, max_value=10**6),
        policy=st.sampled_from(POLICIES),
    )
    def test_multi_tenant_schedules_share_without_overlap(
        self, tenants, scenario_name, seed, policy
    ):
        specs = [
            TenantSpec(
                name=f"t{i + 1}",
                arrival_rate=0.003,
                max_arrivals=2,
                v=12,
                parallelism=6,
                mix=(("random", 0.7), ("blast", 0.3)),
            )
            for i in range(tenants)
        ]
        stream = WorkloadStream(specs, seed=seed, horizon=4000.0)
        run = materialize(registry.make("scenario", scenario_name), initial_size=6, seed=seed)
        result = SharedGridExecutor(
            stream.arrivals(), run.pool, perf_profile=run.profile, policy=policy
        ).run()
        # per-workflow feasibility: precedence and self-overlap
        arrivals = {arrival.key: arrival for arrival in stream.arrivals()}
        for outcome in result.outcomes:
            case = arrivals[outcome.key].case
            assert check_no_overlap(outcome.schedule) == []
            assert check_precedence(case.workflow, case.costs, outcome.schedule) == []
        # cross-tenant exclusivity: booking everything on one timeline per
        # resource raises if two tenants ever held the same slot
        result.shared_timelines()


def _decision_tuples(result):
    return [
        (d.time, d.event, d.adopted, d.forced, d.previous_makespan, d.candidate_makespan)
        for d in result.decisions
    ]


class TestRegistryBitIdentity:
    """Registry-built strategies must equal the direct constructors exactly.

    ``run_case(strategies=("heft", "aheft", "minmin"))`` resolves through
    the scheduling registry; the legacy capitalised names construct the
    schedulers directly.  Under every registered scenario the two paths
    must produce bit-identical makespans, reschedule counts and wasted
    work — the registry is wiring, never semantics.
    """

    PAIRS = (("heft", "HEFT"), ("aheft", "AHEFT"), ("minmin", "MinMin"))

    @pytest.mark.parametrize("scenario_name", registry.available("scenario"))
    def test_registry_names_equal_legacy_runners(self, scenario_name):
        from repro.experiments.runner import ExperimentCase, run_case
        from repro.resources.dynamics import StaticResourceModel

        case = _case(v=20, seed=23)
        registry_names = tuple(pair[0] for pair in self.PAIRS)
        legacy_names = tuple(pair[1] for pair in self.PAIRS)
        experiment = ExperimentCase(
            case=case,
            resource_model=StaticResourceModel(size=6),
            scenario=registry.make("scenario", scenario_name),
            scenario_seed=11,
        )
        via_registry = run_case(experiment, strategies=registry_names)
        via_legacy = run_case(experiment, strategies=legacy_names)
        for registry_name, legacy_name in self.PAIRS:
            assert via_registry.makespans[registry_name] == (
                via_legacy.makespans[legacy_name]
            )
            assert via_registry.rescheduling_counts[registry_name] == (
                via_legacy.rescheduling_counts[legacy_name]
            )
            assert via_registry.wasted_work[registry_name] == (
                via_legacy.wasted_work[legacy_name]
            )

    @pytest.mark.parametrize("scenario_name", sorted(MEMBERSHIP_SCENARIOS))
    def test_registry_scheduler_objects_match_direct_construction(self, scenario_name):
        from repro.scheduling import AHEFTScheduler, HEFTScheduler

        case = _case(v=18, seed=5)
        run = materialize(registry.make("scenario", scenario_name), initial_size=5, seed=3)
        resources = run.pool.available_at(0.0)
        for registry_name, direct in (
            ("heft", HEFTScheduler()),
            ("aheft", AHEFTScheduler()),
        ):
            a = registry.make("scheduler", registry_name).schedule(
                case.workflow, case.costs, resources
            )
            b = direct.schedule(case.workflow, case.costs, resources)
            assert a.to_dict() == b.to_dict()


class TestNewStrategySanityBounds:
    """CPOP / lookahead HEFT must land near HEFT on the Table-2 comparison.

    Both are HEFT-family heuristics; across a batch of the paper's random
    cases their mean makespan must stay within a generous band of plain
    HEFT's (neither collapses nor explodes), and every schedule must beat
    nothing-scheduled lower bounds trivially via feasibility (checked in
    the invariant suite).  The band is deliberately loose — this is a
    sanity gate, not a performance claim.
    """

    STRATEGY_BOUNDS = {"cpop": (0.6, 1.8), "lookahead_heft": (0.7, 1.4)}

    def test_mean_makespan_within_band_of_heft(self):
        resources = ["r1", "r2", "r3", "r4", "r5", "r6"]
        ratios: dict = {name: [] for name in self.STRATEGY_BOUNDS}
        for seed in range(8):
            case = _case(v=30, seed=100 + seed)
            heft = registry.make("scheduler", "heft").schedule(
                case.workflow, case.costs, resources
            )
            for name in self.STRATEGY_BOUNDS:
                other = registry.make("scheduler", name).schedule(
                    case.workflow, case.costs, resources
                )
                ratios[name].append(other.makespan() / heft.makespan())
        for name, (low, high) in self.STRATEGY_BOUNDS.items():
            mean_ratio = sum(ratios[name]) / len(ratios[name])
            assert low <= mean_ratio <= high, (name, mean_ratio, ratios[name])

    def test_heft_dup_zero_noise_simulation_reproduces_the_plan(self):
        """The static executor runs duplicates as real work: under accurate
        estimates the simulated trace reproduces the plan bit for bit —
        duplicate slots occupied, consumers fed from the local copies."""
        from repro.resources.pool import ResourcePool
        from repro.resources.resource import Resource

        found_dup_plan = False
        for seed in range(6):
            case = _case(v=24, seed=300 + seed)
            resources = ["r1", "r2", "r3", "r4"]
            pool = ResourcePool()
            for rid in resources:
                pool.add(Resource(rid))
            plan = registry.make("scheduler", "heft_dup").schedule(
                case.workflow, case.costs, resources
            )
            result = repro.run(
                case.workflow, pool, costs=case.costs, mode="static", strategy="heft_dup",
                simulate=True
            ).raw
            assert result.trace is not None
            executed = result.trace.to_schedule()
            assert executed.to_dict() == plan.to_dict()
            assert executed.duplicates_to_dict() == plan.duplicates_to_dict()
            assert result.makespan == plan.makespan()
            found_dup_plan = found_dup_plan or bool(plan.duplicates)
        assert found_dup_plan, "no seed produced duplicates; test is vacuous"

    def test_heft_dup_never_loses_to_heft_by_much(self):
        """Duplication is adopted only when it helps a job's EFT; schedule-
        level makespan must stay within a few percent of plain HEFT."""

        resources = ["r1", "r2", "r3", "r4"]
        for seed in range(8):
            case = _case(v=24, seed=200 + seed)
            heft = registry.make("scheduler", "heft").schedule(
                case.workflow, case.costs, resources
            )
            dup = registry.make("scheduler", "heft_dup").schedule(
                case.workflow, case.costs, resources
            )
            assert dup.makespan() <= heft.makespan() * 1.10, seed


class TestZeroNoiseDifferential:
    """Magnitude-0 error models are bit-identical to accurate estimates.

    In adaptive mode the null model runs the loop's full truth replay and
    the plain run takes its exact case, so each test pins one against the
    other.
    """

    @pytest.mark.parametrize("strategy", REPLANNERS)
    @pytest.mark.parametrize("scenario_name", registry.available("scenario"))
    def test_adaptive_zero_noise_equals_analytic(self, scenario_name, strategy):
        case = _case(v=24, seed=17)
        run_a = materialize(registry.make("scenario", scenario_name), initial_size=6, seed=5)
        legacy = repro.run(
            case.workflow, run_a.pool, costs=case.costs, mode="adaptive",
            strategy=strategy, perf_profile=run_a.profile,
        ).raw
        run_b = materialize(registry.make("scenario", scenario_name), initial_size=6, seed=5)
        null = repro.run(
            case.workflow, run_b.pool, costs=case.costs, mode="adaptive",
            strategy=strategy, perf_profile=run_b.profile,
            error_model=registry.make("error_model", "gaussian", magnitude=0.0),
        ).raw
        assert null.final_schedule.to_dict() == legacy.final_schedule.to_dict()
        assert null.makespan == legacy.makespan
        assert null.wasted_work == legacy.wasted_work
        assert null.killed_jobs == legacy.killed_jobs
        assert _decision_tuples(null) == _decision_tuples(legacy)
        # the replayed trace reproduces the final plan's booked times exactly
        assert null.trace is not None
        assert null.trace.to_schedule().to_dict() == {
            job: assignment
            for job, assignment in legacy.final_schedule.to_dict().items()
        }

    @settings(max_examples=10, deadline=None)
    @given(
        v=st.integers(min_value=8, max_value=30),
        case_seed=st.integers(min_value=0, max_value=10**6),
        family=st.sampled_from(sorted(registry.available("error_model"))),
        scenario_name=st.sampled_from(sorted(registry.available("scenario"))),
        scenario_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_adaptive_zero_noise_random_cases(
        self, v, case_seed, family, scenario_name, scenario_seed
    ):
        case = _case(v=v, seed=case_seed)
        run_a = materialize(
            registry.make("scenario", scenario_name), initial_size=6, seed=scenario_seed
        )
        legacy = repro.run(
            case.workflow, run_a.pool, costs=case.costs, mode="adaptive", perf_profile=run_a.profile
        ).raw
        run_b = materialize(
            registry.make("scenario", scenario_name), initial_size=6, seed=scenario_seed
        )
        null = repro.run(
            case.workflow, run_b.pool, costs=case.costs, mode="adaptive",
            perf_profile=run_b.profile,
            error_model=registry.make("error_model", family, magnitude=0.0),
        ).raw
        assert null.final_schedule.to_dict() == legacy.final_schedule.to_dict()
        assert null.makespan == legacy.makespan
        assert null.wasted_work == legacy.wasted_work
        assert _decision_tuples(null) == _decision_tuples(legacy)

    @pytest.mark.parametrize("scenario_name", sorted(MEMBERSHIP_SCENARIOS))
    def test_static_and_dynamic_zero_noise_equal_plain_runs(self, scenario_name):
        case = _case(v=20, seed=3)
        null_model = registry.make("error_model", "lognormal", magnitude=0.0)
        for mode in ("static", "dynamic"):
            run_a = materialize(registry.make("scenario", scenario_name), initial_size=6, seed=9)
            plain = repro.run(
                case.workflow, run_a.pool, costs=case.costs, mode=mode,
                perf_profile=run_a.profile,
            ).raw
            run_b = materialize(registry.make("scenario", scenario_name), initial_size=6, seed=9)
            null = repro.run(
                case.workflow, run_b.pool, costs=case.costs, mode=mode,
                perf_profile=run_b.profile, error_model=null_model,
            ).raw
            assert null.makespan == plain.makespan
            assert null.wasted_work == plain.wasted_work
            assert null.killed_jobs == plain.killed_jobs
            if plain.trace is not None:
                assert null.trace.to_schedule().to_dict() == (
                    plain.trace.to_schedule().to_dict()
                )

    def test_static_executor_zero_noise_trace_matches_plain_simulation(self):
        """Even without dynamics the simulated paths coincide bit for bit."""
        case = _case(v=20, seed=3)
        run_a = materialize(registry.make("scenario", "static"), initial_size=6, seed=9)
        plain = repro.run(
            case.workflow, run_a.pool, costs=case.costs, mode="static", perf_profile=run_a.profile,
            simulate=True,
        ).raw
        run_b = materialize(registry.make("scenario", "static"), initial_size=6, seed=9)
        null = repro.run(
            case.workflow, run_b.pool, costs=case.costs, mode="static", perf_profile=run_b.profile,
            error_model=registry.make("error_model", "uniform", magnitude=0.0),
        ).raw
        assert null.trace.to_schedule().to_dict() == plain.trace.to_schedule().to_dict()

    @pytest.mark.parametrize("strategy", ["aheft", "heft_dup"])
    @pytest.mark.parametrize("scenario_name", sorted(MEMBERSHIP_SCENARIOS))
    def test_shared_grid_zero_noise_replay_is_identity(self, scenario_name, strategy):
        specs = [
            TenantSpec(
                name=f"t{i + 1}",
                arrival_rate=0.003,
                max_arrivals=2,
                v=12,
                parallelism=6,
                mix=(("random", 0.7), ("blast", 0.3)),
            )
            for i in range(3)
        ]
        stream = WorkloadStream(specs, seed=13, horizon=4000.0)
        run_a = materialize(registry.make("scenario", scenario_name), initial_size=6, seed=7)
        plain = SharedGridExecutor(
            stream.arrivals(), run_a.pool, perf_profile=run_a.profile, strategy=strategy
        ).run()
        run_b = materialize(registry.make("scenario", scenario_name), initial_size=6, seed=7)
        null = SharedGridExecutor(
            stream.arrivals(), run_b.pool, perf_profile=run_b.profile, strategy=strategy,
            error_model=registry.make("error_model", "gaussian", magnitude=0.0),
        ).run()
        assert len(plain.outcomes) == len(null.outcomes)
        for a, b in zip(null.outcomes, plain.outcomes):
            assert a.key == b.key
            assert a.completed_at == b.completed_at
            assert a.schedule.to_dict() == b.schedule.to_dict()
            # the replayed actuals reproduce the booked times exactly
            assert a.actual_schedule is not None
            assert a.actual_schedule.to_dict() == b.schedule.to_dict()
            assert a.actual_schedule.duplicates_to_dict() == b.schedule.duplicates_to_dict()
            assert a.wasted_work == b.wasted_work
            assert _decision_tuples(a) == _decision_tuples(b)
