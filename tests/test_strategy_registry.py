"""Strategy-registry contract: construction, kinds, runners, injection."""

from __future__ import annotations

import pytest

import repro
from repro.experiments.runner import (
    ExperimentCase,
    available_strategy_names,
    resolve_strategy_runner,
    run_case,
)
from repro.resources.dynamics import StaticResourceModel
from repro.scheduling import (
    SCHEDULERS,
    available_schedulers,
    make_scheduler,
    register_scheduler,
    scheduler_kind,
    scheduler_parameters,
    scheduler_summary,
)


class TestRegistryApi:
    def test_make_scheduler_unknown_name_raises_with_listing(self):
        with pytest.raises(KeyError, match="registered"):
            make_scheduler("nope")

    def test_params_pass_through_to_the_factory(self):
        scheduler = make_scheduler("heft", insertion=False)
        assert scheduler.insertion is False
        scheduler = make_scheduler("random_static", seed=42)
        assert scheduler.seed == 42

    def test_scheduler_configs_are_frozen_dataclasses(self):
        """The new strategy configs are immutable (registry contract)."""
        import dataclasses

        for name in ("cpop", "lookahead_heft", "heft_dup"):
            scheduler = make_scheduler(name)
            assert dataclasses.is_dataclass(scheduler)
            with pytest.raises(dataclasses.FrozenInstanceError):
                scheduler.insertion = False

    def test_kinds_and_summaries_are_registered(self):
        kinds = {name: scheduler_kind(name) for name in available_schedulers()}
        assert kinds["heft"] == "static"
        assert kinds["aheft"] == "adaptive"
        assert kinds["minmin"] == "dynamic"
        assert kinds["cpop"] == "static"
        for name in available_schedulers():
            assert kinds[name] in ("static", "adaptive", "dynamic")
            assert scheduler_summary(name)  # every entry documents itself

    def test_parameters_reflect_constructor_defaults(self):
        params = scheduler_parameters("heft")
        assert params == {"insertion": True}
        assert scheduler_parameters("random_static")["seed"] == 0

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_unknown_keyword_rejected_uniformly(self, name):
        """Every entry raises one TypeError shape naming the strategy.

        Regression: ``make_scheduler`` used to forward keywords straight
        to the factory, so the error was whatever the constructor raised
        — a dataclass ``__init__`` message naming neither the strategy
        nor its valid parameters, and nothing at all for a factory that
        swallowed ``**kwargs``.
        """
        with pytest.raises(TypeError, match=rf"scheduler '{name}'"):
            make_scheduler(name, definitely_not_a_parameter=1)

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_parameters_report_factory_defaults(self, name):
        import inspect

        params = scheduler_parameters(name)
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
            make_scheduler("heft", nope=1)

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
        for name in available_schedulers():
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
        for name in available_schedulers():
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

    def test_sweep_multi_workflow_carries_the_strategy_dimension(self):
        from repro.experiments.multi_tenant import MultiTenantConfig
        from repro.experiments.sweep import sweep_multi_workflow

        base = MultiTenantConfig(
            tenants=2, resources=5, v=10, parallelism=5, max_arrivals=2, seed=0
        )
        points = sweep_multi_workflow(
            arrival_rates=[0.004],
            tenant_counts=[2],
            scenarios=["static"],
            policies=["fifo"],
            strategies=["aheft", "cpop"],
            base_config=base,
        )
        assert [point.strategy for point in points] == ["aheft", "cpop"]
        for point in points:
            assert point.as_dict()["strategy"] == point.strategy
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
