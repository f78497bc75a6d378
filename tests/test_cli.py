"""Tests for the ``python -m repro`` CLI (repro.cli).

The ``compare`` exit-code contract is what CI's regression gate relies on:
0 when ledgers agree within tolerance, 1 on any deviation beyond it, 2 on
usage/I/O errors.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import registry
from repro.cli import EXIT_DEVIATION, EXIT_ERROR, EXIT_OK, main


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture
def ledger(tmp_path: Path) -> Path:
    return write_json(
        tmp_path / "a.json",
        {
            "name": "bench",
            "makespan": 100.0,
            "nested": {"jobs_per_sec": 5000.0, "count": 3},
            "rows": [{"makespan": 10.0}, {"makespan": 20.0}],
            "lines": ["header", "v=10  makespan=100.0"],
        },
    )


class TestCompare:
    def test_identical_ledgers_exit_zero(self, ledger, tmp_path, capsys):
        twin = write_json(tmp_path / "b.json", json.loads(ledger.read_text()))
        assert main(["compare", str(ledger), str(twin)]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_deviation_beyond_tolerance_exits_one(self, ledger, tmp_path, capsys):
        payload = json.loads(ledger.read_text())
        payload["makespan"] = 120.0
        other = write_json(tmp_path / "b.json", payload)
        assert main(["compare", str(ledger), str(other)]) == EXIT_DEVIATION
        out = capsys.readouterr().out
        assert "DEVIATION" in out and "makespan" in out

    def test_deviation_within_tolerance_passes(self, ledger, tmp_path):
        payload = json.loads(ledger.read_text())
        payload["makespan"] = 101.0  # 1% off
        other = write_json(tmp_path / "b.json", payload)
        assert main(["compare", str(ledger), str(other)]) == EXIT_DEVIATION
        assert (
            main(["compare", str(ledger), str(other), "--tolerance", "0.05"])
            == EXIT_OK
        )

    def test_key_tolerance_overrides_default(self, ledger, tmp_path):
        payload = json.loads(ledger.read_text())
        payload["nested"]["jobs_per_sec"] = 4000.0  # 20% throughput drop
        other = write_json(tmp_path / "b.json", payload)
        assert main(["compare", str(ledger), str(other)]) == EXIT_DEVIATION
        assert (
            main(
                [
                    "compare",
                    str(ledger),
                    str(other),
                    "--key-tolerance",
                    "*jobs_per_sec*=0.5",
                ]
            )
            == EXIT_OK
        )

    def test_ignore_glob_skips_keys(self, ledger, tmp_path):
        payload = json.loads(ledger.read_text())
        payload["nested"]["jobs_per_sec"] = 1.0
        other = write_json(tmp_path / "b.json", payload)
        assert (
            main(["compare", str(ledger), str(other), "--ignore", "*jobs_per_sec*"])
            == EXIT_OK
        )

    def test_numbers_inside_text_lines_are_compared(self, ledger, tmp_path):
        payload = json.loads(ledger.read_text())
        payload["lines"][1] = "v=10  makespan=250.0"
        other = write_json(tmp_path / "b.json", payload)
        assert main(["compare", str(ledger), str(other)]) == EXIT_DEVIATION

    def test_missing_key_is_a_deviation_unless_allowed(self, ledger, tmp_path):
        payload = json.loads(ledger.read_text())
        del payload["nested"]["count"]
        other = write_json(tmp_path / "b.json", payload)
        assert main(["compare", str(ledger), str(other)]) == EXIT_DEVIATION
        assert (
            main(["compare", str(ledger), str(other), "--missing-ok"]) == EXIT_OK
        )

    def test_unreadable_file_exits_two(self, ledger, tmp_path):
        assert (
            main(["compare", str(ledger), str(tmp_path / "nope.json")]) == EXIT_ERROR
        )
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["compare", str(ledger), str(bad)]) == EXIT_ERROR


class TestScenariosCommand:
    def test_lists_required_scenarios(self, capsys):
        assert main(["scenarios"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("departures", "degradation", "load_spike", "churn", "paper"):
            assert name in out

    def test_json_output_has_defaults(self, capsys):
        assert main(["scenarios", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["churn"]["defaults"]["interval"] == 400.0


class TestSweepCommand:
    def test_quick_sweep_writes_deterministic_ledger(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = [
            "sweep",
            "--scenario",
            "departures",
            "--scenario",
            "degradation",
            "--v",
            "12",
            "--resources",
            "4",
            "--instances",
            "1",
            "--seed",
            "3",
        ]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        ledger = json.loads(out_a.read_text())
        assert ledger["kind"] == "scenario_sweep"
        assert [p["scenario"] for p in ledger["scenarios"]] == [
            "departures",
            "degradation",
        ]
        for point in ledger["scenarios"]:
            assert set(point["mean_makespans"]) == {"HEFT", "AHEFT", "MinMin"}
        # bit-identical across runs -> usable as a CI regression baseline
        assert out_a.read_text() == out_b.read_text()
        assert main(["compare", str(out_a), str(out_b)]) == EXIT_OK

    def test_scenario_param_overrides(self, tmp_path):
        out = tmp_path / "s.json"
        assert (
            main(
                [
                    "sweep",
                    "--scenario",
                    "departures",
                    "--scenario-param",
                    "interval=150",
                    "--v",
                    "10",
                    "--resources",
                    "4",
                    "--instances",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        ledger = json.loads(out.read_text())
        assert "interval=150" in ledger["scenarios"][0]["description"]

    def test_registry_names_get_the_improvement_columns(self, tmp_path, capsys):
        args = ["sweep", "--scenario", "departures", "--quick"]
        out = str(tmp_path / "s.json")
        assert main(args + ["--strategies", "heft,aheft", "--out", out]) == EXIT_OK
        table = capsys.readouterr().out
        assert "aheft vs heft" in table and "resched(aheft)" in table
        assert main(args + ["--strategies", "HEFT,AHEFT", "--out", out]) == EXIT_OK
        legacy = capsys.readouterr().out
        assert "AHEFT vs HEFT" in legacy and "resched(AHEFT)" in legacy
        # the same runs under either label pair: the same numbers
        assert table.lower().split("ledger")[0] == legacy.lower().split("ledger")[0]

    def test_unknown_scenario_exits_two(self, tmp_path):
        assert (
            main(["sweep", "--scenario", "nope", "--out", str(tmp_path / "x.json")])
            == EXIT_ERROR
        )


class TestDynamicScenarioHelp:
    """`--help` must enumerate the registry, not a hard-coded list, so new
    scenarios can never drift out of the help text."""

    @pytest.mark.parametrize("command", ["sweep", "multi", "mc"])
    def test_help_lists_every_registered_scenario(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in registry.available("scenario"):
            assert name in out

    def test_freshly_registered_scenario_appears_in_help(self, capsys):
        from repro.scenarios import StaticScenario
        from repro.scenarios.library import _REGISTRY, _SUMMARIES, register_scenario

        name = "only_for_this_test"
        register_scenario(name, "ephemeral")(StaticScenario)
        try:
            with pytest.raises(SystemExit):
                main(["sweep", "--help"])
            assert name in capsys.readouterr().out
        finally:
            _REGISTRY.pop(name, None)
            _SUMMARIES.pop(name, None)


class TestStrategiesCommand:
    def test_lists_every_registered_strategy(self, capsys):
        assert main(["strategies"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in registry.available("scheduler"):
            assert name in out
        assert "static" in out and "adaptive" in out and "dynamic" in out

    def test_json_output_has_kind_and_params(self, capsys):
        assert main(["strategies", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == set(registry.available("scheduler"))
        assert payload["heft"]["kind"] == "static"
        assert payload["heft"]["params"] == {"insertion": True}
        assert payload["aheft"]["kind"] == "adaptive"
        assert payload["aheft"]["summary"]


class TestDynamicStrategyHelp:
    """`--strategies` help must enumerate the scheduling registry."""

    @pytest.mark.parametrize("command", ["sweep", "multi", "mc"])
    def test_help_lists_every_registered_strategy(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        names = registry.available("scheduler")
        if command == "multi":
            names = [n for n in names if hasattr(registry.make("scheduler", n), "reschedule")]
        for name in names:
            assert name in out

    def test_freshly_registered_strategy_appears_in_help(self, capsys):
        from repro.scheduling import SCHEDULERS, register_scheduler
        from repro.scheduling.heft import HEFTScheduler

        name = "only_for_this_cli_test"
        register_scheduler(name, kind="static", summary="ephemeral")(HEFTScheduler)
        try:
            with pytest.raises(SystemExit):
                main(["sweep", "--help"])
            assert name in capsys.readouterr().out
        finally:
            SCHEDULERS.pop(name, None)

    def test_unknown_strategy_exits_two(self, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "--scenario",
                    "static",
                    "--quick",
                    "--strategies",
                    "heft,not_a_strategy",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )
            == EXIT_ERROR
        )

    def test_registry_strategies_flow_into_a_sweep_ledger(self, tmp_path):
        out = tmp_path / "registry_sweep.json"
        assert (
            main(
                [
                    "sweep",
                    "--scenario",
                    "static",
                    "--quick",
                    "--v",
                    "12",
                    "--resources",
                    "4",
                    "--strategies",
                    "heft,cpop,heft_dup",
                    "--out",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        ledger = json.loads(out.read_text())
        assert ledger["strategies"] == ["heft", "cpop", "heft_dup"]
        for point in ledger["scenarios"]:
            assert set(point["mean_makespans"]) == {"heft", "cpop", "heft_dup"}


class TestMultiCommand:
    def test_multi_strategy_dimension_reaches_the_ledger(self, tmp_path):
        out = tmp_path / "multi_strategies.json"
        assert (
            main(
                [
                    "multi",
                    "--tenants",
                    "2",
                    "--quick",
                    "--v",
                    "10",
                    "--resources",
                    "4",
                    "--max-arrivals",
                    "1",
                    "--strategies",
                    "aheft,cpop",
                    "--out",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        ledger = json.loads(out.read_text())
        assert ledger["strategies"] == ["aheft", "cpop"]
        assert [point["strategy"] for point in ledger["points"]] == ["aheft", "cpop"]

    def test_multi_rejects_non_replanning_strategy(self, tmp_path):
        assert (
            main(
                [
                    "multi",
                    "--quick",
                    "--strategies",
                    "olb",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )
            == EXIT_ERROR
        )

    def test_multi_ledger_is_deterministic(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = [
            "multi",
            "--tenants",
            "2",
            "--arrival-rate",
            "0.003",
            "--scenario",
            "departures",
            "--quick",
            "--seed",
            "1",
        ]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_text() == out_b.read_text()
        assert main(["compare", str(out_a), str(out_b)]) == EXIT_OK
        ledger = json.loads(out_a.read_text())
        assert ledger["kind"] == "multi_workflow_sweep"
        point = ledger["points"][0]
        for key in ("mean_flow_time", "p95_flow_time", "fairness", "throughput"):
            assert key in point
        assert point["scenario"] == "departures"

    def test_default_scenario_is_static(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert (
            main(
                [
                    "multi",
                    "--tenants",
                    "1",
                    "--quick",
                    "--max-arrivals",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        assert json.loads(out.read_text())["points"][0]["scenario"] == "static"

    def test_unknown_policy_exits_two(self, tmp_path):
        assert (
            main(
                [
                    "multi",
                    "--policies",
                    "round_robin",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )
            == EXIT_ERROR
        )

    def test_unknown_scenario_exits_two(self, tmp_path):
        assert (
            main(
                ["multi", "--scenario", "nope", "--out", str(tmp_path / "x.json")]
            )
            == EXIT_ERROR
        )

    def test_non_positive_tenants_exits_two(self, tmp_path):
        assert (
            main(["multi", "--tenants", "0", "--out", str(tmp_path / "x.json")])
            == EXIT_ERROR
        )


ROOT = Path(__file__).resolve().parents[1]

#: the quick ledger commands of the CI ``bench-regression`` job, by ledger
CI_LEDGERS = {
    "scenario_smoke": "sweep --scenario departures --scenario degradation "
    "--scenario load_spike --scenario churn --quick --seed 0 --name scenario_smoke",
    "multi_tenant_smoke": "multi --tenants 3 --arrival-rate 0.004 "
    "--scenario static --scenario departures --scenario churn "
    "--policies fifo,fair_share,rank_priority --quick --seed 0 "
    "--name multi_tenant_smoke",
    "uncertainty_smoke": "mc --quick --seed 0 --name uncertainty_smoke",
}


class TestCiLedgers:
    """The CI smoke ledgers, regenerated in-process and gated like CI does."""

    def test_commands_are_the_ci_commands(self):
        workflow = " ".join((ROOT / ".github/workflows/ci.yml").read_text().split())
        for name, command in CI_LEDGERS.items():
            assert (
                f"python -m repro {command} --out benchmarks/results/{name}.json"
                in workflow
            )

    @pytest.mark.parametrize("name", sorted(CI_LEDGERS))
    def test_ledger_matches_its_baseline(self, name, tmp_path, capsys):
        out = tmp_path / f"{name}.json"
        assert main([*CI_LEDGERS[name].split(), "--out", str(out)]) == EXIT_OK
        baseline = ROOT / "benchmarks" / "baselines" / f"{name}.json"
        assert main(["compare", str(baseline), str(out)]) == EXIT_OK, (
            capsys.readouterr().out
        )


class TestMcCommand:
    #: a small-but-real invocation: 2 magnitudes × 2 replications
    QUICK = [
        "mc",
        "--error-model",
        "resource_bias",
        "--magnitude",
        "0.0",
        "--magnitude",
        "0.4",
        "--scenario",
        "paper",
        "--v",
        "14",
        "--resources",
        "5",
        "--instances",
        "1",
        "--replications",
        "2",
        "--seed",
        "0",
    ]

    def test_mc_ledger_is_deterministic_across_workers(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(self.QUICK + ["--out", str(out_a)]) == EXIT_OK
        assert main(self.QUICK + ["--workers", "2", "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_text() == out_b.read_text()
        assert main(["compare", str(out_a), str(out_b)]) == EXIT_OK
        ledger = json.loads(out_a.read_text())
        assert ledger["kind"] == "uncertainty_sweep"
        assert ledger["magnitudes"] == [0.0, 0.4]
        point = ledger["points"][0]
        for key in ("stats", "improvement", "improvement_ci95_low", "magnitude"):
            assert key in point
        for stat in point["stats"].values():
            for key in ("mean", "std", "ci95_low", "ci95_high", "count"):
                assert key in stat

    def test_registry_names_report_the_aheft_improvement(self, tmp_path, capsys):
        """The improvement resolves ``heft``/``aheft`` as well as the legacy
        labels; when neither pair ran it is null and renders ``-``."""
        out = tmp_path / "mc.json"
        args = ["mc", "--quick", "--seed", "0", "--magnitude", "0.4", "--out", str(out)]
        assert main(args + ["--strategies", "heft,aheft"]) == EXIT_OK
        [point] = json.loads(out.read_text())["points"]
        heft, aheft = (point["stats"][s]["mean"] for s in ("heft", "aheft"))
        assert heft != aheft
        assert point["improvement"] == pytest.approx((heft - aheft) / heft)
        capsys.readouterr()
        assert main(args + ["--strategies", "heft,cpop"]) == EXIT_OK
        [point] = json.loads(out.read_text())["points"]
        assert point["improvement"] is None and point["improvement_mean"] is None
        row = capsys.readouterr().out.splitlines()[3]
        assert row.split()[-2:] == ["-", "-"]

    def test_help_lists_every_registered_error_model(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mc", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in registry.available("error_model"):
            assert name in out

    def test_freshly_registered_error_model_appears_in_help(self, capsys):
        from repro.workflow.costs import ERROR_MODELS, GaussianErrorModel

        name = "only_for_this_test"
        ERROR_MODELS[name] = lambda magnitude=0.1, seed=0, **kw: GaussianErrorModel(
            sigma=magnitude, seed=seed, **kw
        )
        try:
            with pytest.raises(SystemExit):
                main(["mc", "--help"])
            assert name in capsys.readouterr().out
        finally:
            ERROR_MODELS.pop(name, None)

    def test_unknown_error_model_exits_two(self, tmp_path):
        assert (
            main(
                [
                    "mc",
                    "--error-model",
                    "nope",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )
            == EXIT_ERROR
        )

    def test_invalid_magnitude_exits_two(self, tmp_path):
        assert (
            main(
                [
                    "mc",
                    "--error-model",
                    "uniform",
                    "--magnitude",
                    "1.5",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )
            == EXIT_ERROR
        )

    def test_unknown_scenario_exits_two(self, tmp_path):
        assert (
            main(["mc", "--scenario", "nope", "--out", str(tmp_path / "x.json")])
            == EXIT_ERROR
        )


class TestRunCommand:
    def test_list_names_benchmarks(self, capsys):
        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        assert main(["run", "--list", "--bench-dir", str(bench_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kernel_scaling" in out

    def test_unknown_bench_exits_two(self):
        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        assert (
            main(["run", "definitely-missing", "--bench-dir", str(bench_dir)])
            == EXIT_ERROR
        )

    def test_forwarding_after_separator_reaches_the_script(self, tmp_path, capsys):
        """`repro run bench -- --flag` forwards --flag (the CI kernel-gate
        invocation) even though argparse consumes the first `--` itself."""
        (tmp_path / "bench_echo.py").write_text(
            "import json, sys\nprint('ARGS=' + json.dumps(sys.argv[1:]))\n",
            encoding="utf-8",
        )
        assert (
            main(["run", "--bench-dir", str(tmp_path), "echo", "--", "--quick"])
            == EXIT_OK
        )
        assert 'ARGS=["--quick"]' in capsys.readouterr().out

    def test_forwarding_without_separator_exits_two(self, tmp_path):
        (tmp_path / "bench_echo.py").write_text("pass\n", encoding="utf-8")
        assert (
            main(["run", "--bench-dir", str(tmp_path), "echo", "--quick"])
            == EXIT_ERROR
        )

    def test_option_before_separator_still_fails_loudly(self, tmp_path):
        """A mistyped repro option between bench name and `--` must not be
        silently forwarded to the script."""
        (tmp_path / "bench_echo.py").write_text("pass\n", encoding="utf-8")
        assert (
            main(
                [
                    "run",
                    "--bench-dir",
                    str(tmp_path),
                    "echo",
                    "--quick",
                    "--",
                    "--real",
                ]
            )
            == EXIT_ERROR
        )

    def test_literal_separator_inside_script_args_is_forwarded(self, tmp_path, capsys):
        (tmp_path / "bench_echo.py").write_text(
            "import json, sys\nprint('ARGS=' + json.dumps(sys.argv[1:]))\n",
            encoding="utf-8",
        )
        assert (
            main(
                ["run", "--bench-dir", str(tmp_path), "echo", "--", "a", "--", "b"]
            )
            == EXIT_OK
        )
        assert 'ARGS=["a", "--", "b"]' in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        repo_root = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "repro", "scenarios"],
            capture_output=True,
            text=True,
            cwd=repo_root,
            env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "churn" in result.stdout


class TestExitCodeContract:
    def test_bad_scenario_param_is_usage_error_not_deviation(self, tmp_path):
        # load_spike has no `interval` parameter: must exit 2 (usage), not
        # 1 (reserved for compare deviations)
        code = main(
            [
                "sweep",
                "--scenario",
                "load_spike",
                "--scenario-param",
                "interval=100",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == EXIT_ERROR
