"""Strategy-registry contract: construction, kinds, runners, injection."""

from __future__ import annotations

import pytest

import repro
from repro import registry
from repro.experiments.runner import (
    ExperimentCase,
    available_strategy_names,
    resolve_strategy_runner,
    run_case,
)
from repro.resources.dynamics import StaticResourceModel
from repro.scheduling import (
    SCHEDULERS,
    register_scheduler,
)


class TestRegistryApi:
    def test_unknown_scheduler_name_raises_with_listing(self):
        with pytest.raises(KeyError, match="registered"):
            registry.make("scheduler", "nope")

    def test_params_pass_through_to_the_factory(self):
        scheduler = registry.make("scheduler", "heft", insertion=False)
        assert scheduler.insertion is False
        scheduler = registry.make("scheduler", "random_static", seed=42)
        assert scheduler.seed == 42

    def test_scheduler_configs_are_frozen_dataclasses(self):
        """The new strategy configs are immutable (registry contract)."""
        import dataclasses

        for name in ("cpop", "lookahead_heft", "heft_dup"):
            scheduler = registry.make("scheduler", name)
            assert dataclasses.is_dataclass(scheduler)
            with pytest.raises(dataclasses.FrozenInstanceError):
                scheduler.insertion = False

    def test_kinds_and_summaries_are_registered(self):
        kinds = {
            name: registry.describe("scheduler", name)["kind"]
            for name in registry.available("scheduler")
        }
        assert kinds["heft"] == "static"
        assert kinds["aheft"] == "adaptive"
        assert kinds["minmin"] == "dynamic"
        assert kinds["cpop"] == "static"
        for name in registry.available("scheduler"):
            assert kinds[name] in ("static", "adaptive", "dynamic")
            assert registry.describe("scheduler", name)["summary"]  # every entry documents itself

    def test_parameters_reflect_constructor_defaults(self):
        params = registry.describe("scheduler", "heft")["params"]
        assert params == {"insertion": True}
        assert registry.describe("scheduler", "random_static")["params"]["seed"] == 0

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_unknown_keyword_rejected_uniformly(self, name):
        """Every entry raises one TypeError shape naming the strategy.

        Regression: ``registry.make`` used to forward keywords straight
        to the factory, so the error was whatever the constructor raised
        — a dataclass ``__init__`` message naming neither the strategy
        nor its valid parameters, and nothing at all for a factory that
        swallowed ``**kwargs``.
        """
        with pytest.raises(TypeError, match=rf"scheduler '{name}'"):
            registry.make("scheduler", name, definitely_not_a_parameter=1)

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_parameters_report_factory_defaults(self, name):
        import inspect

        params = registry.describe("scheduler", name)["params"]
        signature = inspect.signature(SCHEDULERS[name].factory)
        for param_name, default in params.items():
            parameter = signature.parameters[param_name]
            expected = (
                None
                if parameter.default is inspect.Parameter.empty
                else parameter.default
            )
            assert default == expected

    def test_unknown_keyword_error_lists_valid_parameters(self):
        with pytest.raises(TypeError, match="insertion"):
            registry.make("scheduler", "heft", nope=1)

    def test_var_keyword_factory_opts_out_of_validation(self):
        from repro.scheduling.registry import validate_scheduler_params

        def flexible(**kwargs):  # explicitly accepts anything
            return kwargs

        validate_scheduler_params("flexible", flexible, {"anything": 1})
        with pytest.raises(TypeError, match="scheduler 'strict'"):
            validate_scheduler_params("strict", lambda a=1: a, {"b": 2})

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("heft", kind="static")(object)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_scheduler("x", kind="quantum")(object)

    def test_registry_and_legacy_names_union(self):
        names = available_strategy_names()
        assert "heft" in names and "HEFT" in names and "cpop" in names


class TestStrategyInjection:
    def test_adaptive_mode_rejects_non_replanning_strategy(self, small_random_case, make_pool):
        with pytest.raises(ValueError, match="reschedule"):
            repro.run(
                small_random_case.workflow,
                make_pool(4),
                costs=small_random_case.costs,
                mode="adaptive",
                strategy="heft",
            )

    def test_dynamic_mode_rejects_non_batch_strategy(self, small_random_case, make_pool):
        with pytest.raises(ValueError, match="map_ready_jobs"):
            repro.run(
                small_random_case.workflow,
                make_pool(4),
                costs=small_random_case.costs,
                mode="dynamic",
                strategy="cpop",
            )

    def test_static_mode_accepts_every_registered_strategy(
        self, small_random_case, make_pool
    ):
        pool = make_pool(4)
        for name in registry.available("scheduler"):
            result = repro.run(
                small_random_case.workflow,
                pool,
                costs=small_random_case.costs,
                mode="static",
                strategy=name,
            ).raw
            assert result.makespan > 0

    def test_adaptive_mode_cpop_uses_a_late_join(self, small_random_case, make_pool):
        """A CPOP adaptive loop reacts to pool growth like AHEFT does."""
        pool = make_pool(3, joins=(30.0,))
        result = repro.run(
            small_random_case.workflow,
            pool,
            costs=small_random_case.costs,
            mode="adaptive",
            strategy="cpop",
        ).raw
        assert result.evaluated_events >= 1

    def test_adaptive_prefix_runs_registry_strategy_in_the_loop(
        self, small_random_case
    ):
        experiment = ExperimentCase(
            case=small_random_case, resource_model=StaticResourceModel(size=4)
        )
        result = run_case(
            experiment, strategies=("heft", "adaptive:cpop", "adaptive:minmin")
        )
        assert set(result.makespans) == {"heft", "adaptive:cpop", "adaptive:minmin"}
        for value in result.makespans.values():
            assert value > 0

    def test_unknown_strategy_name_in_run_case_raises(self, small_random_case):
        experiment = ExperimentCase(
            case=small_random_case, resource_model=StaticResourceModel(size=4)
        )
        with pytest.raises(KeyError, match="available"):
            run_case(experiment, strategies=("definitely_not_registered",))

    def test_resolver_covers_every_registry_kind(self):
        for name in registry.available("scheduler"):
            assert callable(resolve_strategy_runner(name))
        assert callable(resolve_strategy_runner("adaptive:sufferage"))
        with pytest.raises(KeyError):
            resolve_strategy_runner("adaptive:not_a_strategy")

    def test_adaptive_prefix_rejects_non_replanning_strategies_at_parse_time(self):
        """adaptive:olb must fail at resolution, not crash mid-sweep."""
        with pytest.raises(KeyError, match="reschedule"):
            resolve_strategy_runner("adaptive:olb")
        from repro.cli import EXIT_ERROR, main

        assert (
            main(
                [
                    "sweep",
                    "--scenario",
                    "static",
                    "--quick",
                    "--strategies",
                    "adaptive:olb",
                    "--out",
                    "/tmp/never_written.json",
                ]
            )
            == EXIT_ERROR
        )


class TestMultiTenantStrategyInjection:
    def test_planner_validates_strategy_early(self, make_pool):
        from repro.core.multi_tenant import MultiTenantPlanner

        with pytest.raises(ValueError, match="reschedule"):
            MultiTenantPlanner(make_pool(4), strategy="heft")
        with pytest.raises(KeyError):
            MultiTenantPlanner(make_pool(4), strategy="nope")

    def test_planner_rejects_ambiguous_factory_plus_strategy(self, make_pool):
        from repro.core.multi_tenant import MultiTenantPlanner
        from repro.scheduling.aheft import AHEFTScheduler

        with pytest.raises(ValueError, match="not both"):
            MultiTenantPlanner(
                make_pool(4), scheduler_factory=AHEFTScheduler, strategy="aheft"
            )

    def test_multi_tenant_matrix_carries_the_strategy_dimension(self):
        from dataclasses import asdict

        from repro.experiments.multi_tenant import MultiTenantConfig, multi_tenant_cell
        from repro.experiments.sweep import sweep_matrix

        base = MultiTenantConfig(
            tenants=2, arrival_rate=0.004, resources=5, v=10, parallelism=5,
            max_arrivals=2, seed=0,
        )
        points = sweep_matrix(
            multi_tenant_cell, base, {"strategy": ["aheft", "cpop"]}
        )
        assert [point.strategy for point in points] == ["aheft", "cpop"]
        for point in points:
            assert asdict(point)["strategy"] == point.strategy
            assert point.workflows > 0

    def test_registered_but_fresh_strategy_reaches_the_shared_grid(self, make_pool):
        """A runtime-registered replanner is usable end to end."""
        from repro.scheduling.aheft import AHEFTScheduler
        from repro.simulation.shared_grid import SharedGridExecutor
        from repro.workload.streams import TenantSpec, WorkloadStream

        name = "fresh_for_grid_test"
        register_scheduler(name, kind="adaptive", summary="ephemeral")(AHEFTScheduler)
        try:
            specs = [
                TenantSpec(
                    name="t1",
                    arrival_rate=0.003,
                    max_arrivals=1,
                    v=8,
                    parallelism=4,
                    mix=(("random", 1.0),),
                )
            ]
            stream = WorkloadStream(specs, seed=1, horizon=2000.0)
            result = SharedGridExecutor(
                stream.arrivals(), make_pool(4), strategy=name
            ).run()
            assert len(result.outcomes) == 1
        finally:
            SCHEDULERS.pop(name, None)


#: every legacy ledger label and the direct ``repro.run`` call it stands
#: for, written out by hand (not read from the runner's table)
LEGACY_LABELS = {
    "HEFT": ("static", "heft", {}),
    "AHEFT": ("adaptive", "aheft", {}),
    "MinMin": ("dynamic", "minmin", {}),
    "MaxMin": ("dynamic", "maxmin", {}),
    "Sufferage": ("dynamic", "sufferage", {}),
    "AHEFT-always": ("adaptive", "aheft", {"accept_only_if_better": False}),
}


class TestLegacyLabels:
    """The capitalised ledger labels are pinned to one facade call each.

    The committed benchmark ledgers key on these labels; the case (churn,
    seed 0) tells every pair of them apart, so a label bound to the wrong
    mode, scheduler or option shows up as a different outcome.
    """

    @pytest.fixture(scope="class")
    def churn_case(self):
        from repro.experiments.config import RandomExperimentConfig

        return RandomExperimentConfig(
            v=20, resources=4, seed=0, scenario="churn"
        ).to_experiment_case()

    @staticmethod
    def _outcome(result, label):
        return (
            result.makespans[label],
            result.rescheduling_counts[label],
            result.wasted_work[label],
            result.killed_jobs[label],
        )

    def test_the_labels_are_exactly_the_legacy_set(self):
        legacy = set(available_strategy_names()) - set(repro.registry.available("scheduler"))
        assert legacy == set(LEGACY_LABELS)

    @pytest.mark.parametrize("label", sorted(LEGACY_LABELS))
    def test_label_matches_its_direct_facade_call(self, churn_case, label):
        mode, scheduler, options = LEGACY_LABELS[label]
        via_label = self._outcome(run_case(churn_case, strategies=(label,)), label)
        scenario_run = churn_case.build_scenario_run()
        direct = repro.run(
            churn_case.case.workflow,
            scenario_run.pool,
            mode=mode,
            costs=churn_case.case.costs,
            strategy=scheduler,
            perf_profile=scenario_run.profile,
            **options,
        )
        assert via_label == (
            direct.makespan,
            direct.rescheduling_count,
            direct.wasted_work,
            direct.killed_jobs,
        )

    def test_the_case_tells_every_label_apart(self, churn_case):
        result = run_case(churn_case, strategies=tuple(LEGACY_LABELS))
        outcomes = {label: self._outcome(result, label) for label in LEGACY_LABELS}
        assert len(set(outcomes.values())) == len(LEGACY_LABELS)
