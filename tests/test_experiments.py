"""Tests for the experiment harness: metrics, config grids, runner, sweeps, reporting."""

import pytest

from repro.experiments.config import (
    APPLICATION_GRID,
    RANDOM_DAG_GRID,
    ApplicationExperimentConfig,
    RandomExperimentConfig,
    sample_application_grid,
    sample_random_grid,
)
from repro.experiments.metrics import (
    average,
    improvement_rate,
    makespan_statistics,
    resource_utilisation,
    schedule_length_ratio,
    speedup,
)
from repro.experiments.reporting import (
    format_table,
    render_case_results,
    render_improvement_table,
    render_series,
)
from repro.experiments.runner import (
    ExperimentCase,
    run_case,
    run_case_batch,
    run_instances,
)
from repro.experiments.sweep import (
    instances_cell,
    sweep_application_parameter,
    sweep_matrix,
    sweep_random_parameter,
)
from repro.resources.dynamics import ResourceChangeModel
from repro.scheduling.heft import HEFTScheduler


class TestMetrics:
    def test_improvement_rate(self):
        assert improvement_rate(100.0, 80.0) == pytest.approx(0.2)
        assert improvement_rate(0.0, 10.0) == 0.0
        assert improvement_rate(100.0, 120.0) == pytest.approx(-0.2)

    def test_average(self):
        assert average([1.0, 2.0, 3.0]) == 2.0
        assert average([]) == 0.0

    def test_makespan_statistics(self):
        stats = makespan_statistics([10.0, 20.0, 30.0])
        assert stats.count == 3
        assert stats.mean == 20.0
        assert stats.min == 10.0 and stats.max == 30.0
        assert makespan_statistics([]).count == 0

    def test_slr_and_speedup_bounds(self, sample_workflow, sample_costs):
        resources = ["r1", "r2", "r3"]
        schedule = HEFTScheduler().schedule(sample_workflow, sample_costs, resources)
        slr = schedule_length_ratio(sample_workflow, sample_costs, schedule.makespan(), resources)
        assert slr >= 1.0
        sp = speedup(sample_workflow, sample_costs, schedule.makespan(), resources)
        assert sp >= 1.0

    def test_resource_utilisation(self, sample_workflow, sample_costs):
        resources = ["r1", "r2", "r3"]
        schedule = HEFTScheduler().schedule(sample_workflow, sample_costs, resources)
        utilisation = resource_utilisation(schedule, resources)
        assert set(utilisation) == set(resources)
        assert all(0.0 <= value <= 1.0 for value in utilisation.values())

    def test_resource_utilisation_counts_duplicate_copies(self):
        """Regression: duplicate copies placed by heft_dup were invisible.

        Summing ``assignments_on`` only missed ``Schedule.duplicates``, so a
        resource fully occupied by a duplicate reported 0% busy.
        """
        from repro.scheduling.base import Assignment, Schedule

        schedule = Schedule()
        schedule.add(Assignment("j1", "r1", 0.0, 10.0))
        schedule.add(Assignment("j2", "r1", 10.0, 20.0))
        schedule.add_duplicate(Assignment("j1", "r2", 0.0, 10.0))
        utilisation = resource_utilisation(schedule, ["r1", "r2", "r3"])
        assert utilisation["r1"] == pytest.approx(1.0)
        assert utilisation["r2"] == pytest.approx(0.5)  # the duplicate's footprint
        assert utilisation["r3"] == 0.0

    def test_speedup_and_slr_with_empty_resource_pool(self, sample_workflow, sample_costs):
        """Regression: an empty pool raised a bare ValueError from ``min()``.

        Both metrics now follow the module's empty-input convention and
        return 0.0 (no sequential baseline / no defined lower bound).
        """
        assert speedup(sample_workflow, sample_costs, 100.0, []) == 0.0
        assert schedule_length_ratio(sample_workflow, sample_costs, 100.0, []) == 0.0


class TestConfig:
    def test_grids_match_paper_tables(self):
        assert RANDOM_DAG_GRID["v"] == (20, 40, 60, 80, 100)
        assert RANDOM_DAG_GRID["ccr"] == (0.1, 0.5, 1.0, 5.0, 10.0)
        assert APPLICATION_GRID["parallelism"] == (200, 400, 600, 800, 1000)
        assert APPLICATION_GRID["interval"] == (400, 800, 1200, 1600)

    def test_random_config_builds_consistent_case(self):
        config = RandomExperimentConfig(v=25, ccr=0.5, resources=5, seed=3)
        case = config.build_case()
        assert case.workflow.num_jobs == 25
        model = config.build_resource_model()
        assert model.initial_size == 5
        assert config.as_params()["ccr"] == 0.5

    def test_application_config_builds_case(self):
        config = ApplicationExperimentConfig(application="wien2k", parallelism=5, seed=1)
        case = config.build_case()
        assert case.workflow.num_jobs == 2 * 5 + 8

    def test_unknown_application_rejected(self):
        with pytest.raises(ValueError):
            ApplicationExperimentConfig(application="nonsense")

    def test_full_grid_iteration_size(self):
        small_grid = dict(RANDOM_DAG_GRID)
        small_grid["v"] = (20,)
        small_grid["ccr"] = (1.0,)
        small_grid["out_degree"] = (0.2,)
        small_grid["beta"] = (0.5,)
        configs = sweep_matrix(lambda config: config, RandomExperimentConfig(), small_grid)
        assert len(configs) == 5 * 4 * 4  # resources x interval x fraction
        assert len(set(configs)) == len(configs)

    def test_sampling_is_deterministic(self):
        a = sample_random_grid(5, seed=2)
        b = sample_random_grid(5, seed=2)
        c = sample_random_grid(5, seed=3)
        assert a == b
        assert a != c
        assert len(sample_application_grid("blast", 4, seed=1)) == 4


class TestRunnerAndSweep:
    @pytest.fixture
    def tiny_experiment(self):
        config = RandomExperimentConfig(v=20, ccr=1.0, resources=4, interval=200.0,
                                        fraction=0.25, omega_dag=80.0, seed=5)
        return ExperimentCase(config.build_case(), config.build_resource_model())

    def test_run_case_returns_all_strategies(self, tiny_experiment):
        result = run_case(tiny_experiment, strategies=("HEFT", "AHEFT", "MinMin"))
        assert set(result.makespans) == {"HEFT", "AHEFT", "MinMin"}
        assert result.makespans["AHEFT"] <= result.makespans["HEFT"] + 1e-9
        assert result.improvement() >= -1e-9

    def test_unknown_strategy_rejected(self, tiny_experiment):
        with pytest.raises(KeyError):
            run_case(tiny_experiment, strategies=("HEFT", "nope"))

    def test_instances_cell_averages_the_instances(self):
        config = RandomExperimentConfig(v=20, resources=4, interval=200.0,
                                        fraction=0.25, omega_dag=80.0, seed=5)
        strategies = ("HEFT", "AHEFT")
        results = run_instances(config, instances=2, strategies=strategies)
        assert [r.params["instance"] for r in results] == [0, 1]
        point = instances_cell(config, parameter="v", instances=2, strategies=strategies)
        assert point.value == 20 and point.case_count == 2
        for strategy in strategies:
            assert point.mean_makespans[strategy] == average(
                r.makespans[strategy] for r in results
            )

    def test_matrix_walks_axes_in_declared_order(self):
        def cell(config, **keywords):
            return (config.v, config.ccr, keywords)

        points = sweep_matrix(
            cell,
            RandomExperimentConfig(),
            {"v": [20, 40], "ccr": [0.5], "magnitude": [0.0, 0.2]},
            tag="x",
        )
        assert points == [
            (20, 0.5, {"magnitude": 0.0, "tag": "x"}),
            (20, 0.5, {"magnitude": 0.2, "tag": "x"}),
            (40, 0.5, {"magnitude": 0.0, "tag": "x"}),
            (40, 0.5, {"magnitude": 0.2, "tag": "x"}),
        ]

    def test_sweep_random_parameter_shapes(self):
        points = sweep_random_parameter(
            "ccr",
            [0.5, 5.0],
            base_config=RandomExperimentConfig(v=20, resources=4, interval=200.0,
                                               fraction=0.25, omega_dag=80.0),
            instances=2,
            strategies=("HEFT", "AHEFT"),
            seed=3,
        )
        assert [p.value for p in points] == [0.5, 5.0]
        for point in points:
            assert point.case_count == 2
            assert point.mean_makespans["AHEFT"] <= point.mean_makespans["HEFT"] + 1e-9
            assert point.improvement() >= -1e-9

    def test_sweep_application_parameter(self):
        points = sweep_application_parameter(
            "blast",
            "parallelism",
            [5, 10],
            base_config=ApplicationExperimentConfig(
                application="blast", resources=3, interval=200.0, fraction=0.5,
                omega_dag=80.0,
            ),
            instances=1,
            strategies=("HEFT", "AHEFT"),
            seed=2,
        )
        assert len(points) == 2
        assert points[1].mean_makespans["HEFT"] > points[0].mean_makespans["HEFT"]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_random_parameter("bogus", [1])
        with pytest.raises(ValueError):
            sweep_application_parameter("blast", "bogus", [1])


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "metric"], [["x", 1.234], ["longer", 5.6]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.2" in lines[2]

    def test_render_improvement_table(self):
        points = sweep_random_parameter(
            "ccr",
            [1.0],
            base_config=RandomExperimentConfig(v=20, resources=4, interval=200.0,
                                               fraction=0.25, omega_dag=80.0),
            instances=1,
            seed=1,
        )
        text = render_improvement_table(points, title="Table 3")
        assert "Table 3" in text
        assert "%" in text
        assert render_improvement_table([]) == "(no data)"

    def test_render_series(self):
        points = sweep_application_parameter(
            "blast", "ccr", [1.0],
            base_config=ApplicationExperimentConfig(application="blast", parallelism=5,
                                                    resources=3, interval=200.0,
                                                    fraction=0.5, omega_dag=80.0),
            instances=1, seed=1,
        )
        text = render_series({"BLAST": points}, title="Fig 8(a)")
        assert "HEFT1(BLAST)" in text
        assert "Fig 8(a)" in text
        assert render_series({}) == "(no data)"

    def test_render_case_results(self, small_random_case):
        config = RandomExperimentConfig(v=20, resources=4, interval=200.0, fraction=0.25,
                                        omega_dag=80.0, seed=9)
        result = run_case(
            ExperimentCase(config.build_case(), config.build_resource_model()),
            strategies=("HEFT", "AHEFT"),
        )
        text = render_case_results([result])
        assert "HEFT" in text and "%" in text
        assert render_case_results([]) == "(no data)"


class TestParallelCaseRunner:
    def _experiments(self):
        configs = [
            RandomExperimentConfig(
                v=20, resources=4, interval=200.0, fraction=0.25,
                omega_dag=80.0, seed=seed,
            )
            for seed in (0, 1, 2)
        ]
        return [
            ExperimentCase(config.build_case(), config.build_resource_model())
            for config in configs
        ]

    def test_workers_match_serial(self):
        serial = run_case_batch(self._experiments(), strategies=("HEFT", "AHEFT"))
        parallel = run_case_batch(
            self._experiments(), strategies=("HEFT", "AHEFT"), workers=2
        )
        assert [r.makespans for r in serial] == [r.makespans for r in parallel]
        assert [r.params for r in serial] == [r.params for r in parallel]
        assert [r.rescheduling_counts for r in serial] == [
            r.rescheduling_counts for r in parallel
        ]

    def test_workers_one_stays_serial(self):
        experiments = self._experiments()
        assert len(run_case_batch(experiments, workers=1)) == len(experiments)

    def test_sweep_accepts_workers(self):
        points = sweep_random_parameter(
            "ccr",
            [1.0],
            base_config=RandomExperimentConfig(
                v=20, resources=4, interval=200.0, fraction=0.25, omega_dag=80.0
            ),
            instances=2,
            seed=2,
            workers=2,
        )
        reference = sweep_random_parameter(
            "ccr",
            [1.0],
            base_config=RandomExperimentConfig(
                v=20, resources=4, interval=200.0, fraction=0.25, omega_dag=80.0
            ),
            instances=2,
            seed=2,
        )
        assert [p.mean_makespans for p in points] == [
            p.mean_makespans for p in reference
        ]
