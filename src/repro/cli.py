"""``python -m repro`` — the reproduction's command-line interface.

Seven subcommands make the benchmark matrix scriptable from CI and from a
shell alike:

* ``repro scenarios`` — list the registered grid-dynamics scenarios;
* ``repro strategies`` — list the registered scheduling strategies
  (name, kind, constructor parameters);
* ``repro run <bench>`` — run a benchmark script from ``benchmarks/`` by
  (fuzzy) name, forwarding extra arguments (e.g. ``repro run kernel --
  --quick``);
* ``repro sweep --scenario churn ...`` — run the strategy comparison under
  one or more named scenarios and write a JSON ledger;
* ``repro multi --tenants 4 --arrival-rate 0.01 --scenario departures`` —
  run the multi-tenant shared-grid matrix (concurrent workflow streams
  competing for the same resources) and write a JSON ledger;
* ``repro mc --error-model resource_bias --magnitude 0 --magnitude 0.4``
  — the Monte Carlo uncertainty matrix: replicated runs under sampled
  ground-truth runtimes, reporting mean/CI95 makespans and the AHEFT
  improvement trend over estimate-error magnitudes;
* ``repro compare <ledger-A> <ledger-B>`` — compare two JSON ledgers
  within a tolerance.

Exit-code contract (relied on by shell pipelines and the CI regression
gate): **0** on success, **1** when ``repro compare`` finds a deviation
beyond tolerance, **2** on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import registry

__all__ = ["main"]

EXIT_OK = 0
EXIT_DEVIATION = 1
EXIT_ERROR = 2

_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


class CliError(Exception):
    """A usage/environment error; maps to exit code 2."""


# ----------------------------------------------------------------------
# repro scenarios
# ----------------------------------------------------------------------
def _cmd_scenarios(args: argparse.Namespace) -> int:
    names = registry.available("scenario")
    if args.json:
        payload = {
            name: {
                "summary": registry.describe("scenario", name)["summary"],
                "defaults": registry.describe("scenario", name)["defaults"],
            }
            for name in names
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return EXIT_OK
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {registry.describe('scenario', name)['summary']}")
    return EXIT_OK


# ----------------------------------------------------------------------
# repro strategies
# ----------------------------------------------------------------------
def _cmd_strategies(args: argparse.Namespace) -> int:
    names = registry.available("scheduler")
    infos = {name: registry.describe("scheduler", name) for name in names}
    if args.json:
        payload = {
            name: {
                "kind": info["kind"],
                "summary": info["summary"],
                "params": info["params"],
            }
            for name, info in infos.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return EXIT_OK
    width = max(len(name) for name in names)
    kind_width = max(len(info["kind"]) for info in infos.values())
    for name in names:
        info = infos[name]
        params = ", ".join(
            f"{key}={value}" for key, value in info["params"].items()
        )
        line = (
            f"{name:<{width}}  {info['kind']:<{kind_width}}  {info['summary']}"
        )
        if params:
            line += f"  [{params}]"
        print(line)
    return EXIT_OK


def _parse_strategies(raw: str) -> List[str]:
    """Split and validate a comma-separated strategy list."""
    from repro.experiments.runner import resolve_strategy_runner

    strategies = [s.strip() for s in raw.split(",") if s.strip()]
    if not strategies:
        raise CliError("--strategies must name at least one strategy")
    for name in strategies:
        try:
            resolve_strategy_runner(name)
        except (KeyError, ValueError) as error:
            raise CliError(str(error).strip('"')) from None
    return strategies


# ----------------------------------------------------------------------
# repro run
# ----------------------------------------------------------------------
def _bench_dir(explicit: Optional[str]) -> Path:
    if explicit:
        path = Path(explicit)
        if not path.is_dir():
            raise CliError(f"benchmark directory not found: {path}")
        return path
    candidates = [
        Path.cwd() / "benchmarks",
        Path(__file__).resolve().parents[2] / "benchmarks",
    ]
    for path in candidates:
        if path.is_dir():
            return path
    raise CliError(
        "no benchmarks/ directory found (looked in "
        + ", ".join(str(c) for c in candidates)
        + "); pass --bench-dir"
    )


def _resolve_bench(directory: Path, name: str) -> Path:
    scripts = sorted(directory.glob("bench_*.py"))
    exact = [s for s in scripts if s.name in (name, f"bench_{name}.py")]
    if exact:
        return exact[0]
    matches = [s for s in scripts if name in s.stem]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise CliError(
            f"no benchmark matches {name!r}; available: "
            + ", ".join(s.stem.removeprefix("bench_") for s in scripts)
        )
    raise CliError(
        f"benchmark name {name!r} is ambiguous: "
        + ", ".join(s.stem.removeprefix("bench_") for s in matches)
    )


def _cmd_run(args: argparse.Namespace) -> int:
    import runpy

    directory = _bench_dir(args.bench_dir)
    if args.list or args.bench is None:
        for script in sorted(directory.glob("bench_*.py")):
            print(script.stem.removeprefix("bench_"))
        return EXIT_OK
    script = _resolve_bench(directory, args.bench)
    forwarded = list(args.bench_args)
    if forwarded:
        # argparse.REMAINDER swallows everything after the benchmark name,
        # including repro's own options; insist on the explicit separator
        # so a mistyped `repro run bench --bench-dir X` fails loudly
        # instead of silently forwarding the flag to the script.  Recent
        # argparse versions consume the first `--` themselves, so the check
        # runs on the raw argv: the forwarded tokens must be exactly what
        # follows the first literal `--` (older argparse keeps the
        # separator itself at the front of the REMAINDER).
        raw = list(getattr(args, "raw_argv", []))
        sep = raw.index("--") if "--" in raw else -1
        if sep == -1 or (forwarded != raw[sep + 1 :] and forwarded != raw[sep:]):
            raise CliError(
                "place repro options before the benchmark name; script "
                f"arguments go after a literal '--' (got {forwarded[0]!r})"
            )
        if forwarded[0] == "--":  # older argparse kept the separator
            forwarded = forwarded[1:]
    print(f"running {script} {' '.join(forwarded)}".rstrip())
    old_argv = sys.argv
    old_path = list(sys.path)
    try:
        # benchmarks import their shared helpers as ``from _common import …``
        sys.path.insert(0, str(directory))
        sys.argv = [str(script), *forwarded]
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = old_argv
        sys.path[:] = old_path
    return EXIT_OK


# ----------------------------------------------------------------------
# repro sweep
# ----------------------------------------------------------------------
def _parse_value(raw: str) -> object:
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    if raw.lower() in ("none", "null"):
        return None
    return raw


def _parse_kv(pairs: Sequence[str], option: str) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise CliError(f"{option} expects key=value, got {pair!r}")
        out[key] = _parse_value(value)
    return out


def _check_scenarios(names: Sequence[str], params: Dict[str, object]) -> None:
    """Build every named scenario once; unknown names raise ScenarioError."""
    for name in names:
        try:
            registry.make("scenario", name, **params)
        except TypeError as error:
            # e.g. --scenario-param interval=... applied to a scenario
            # without an `interval` parameter
            raise CliError(f"scenario {name!r} rejected parameters: {error}") from None


def _base_config(
    args: argparse.Namespace,
    config_class,
    axes: Dict[str, Sequence[object]],
    sizes: Dict[str, Tuple[int, int]],
    **overrides,
):
    """The matrix's base config, built from the parsed options.

    Every option named like a field of ``config_class`` fills it, except
    the matrix ``axes``.  A size option left unset takes its ``--quick``
    or full default from ``sizes`` (name -> ``(quick, full)``), written
    back to ``args`` so the command and its ledger see the resolved value.
    """
    for name, (quick, full) in sizes.items():
        if getattr(args, name) is None:
            setattr(args, name, quick if args.quick else full)
    names = {field.name for field in dataclasses.fields(config_class)} - set(axes)
    options = {name: getattr(args, name) for name in names if hasattr(args, name)}
    return config_class(**options, **overrides)


def _write_ledger(
    args: argparse.Namespace,
    kind: str,
    base,
    axes: Dict[str, Sequence[object]],
    points: Sequence[object],
    table: str,
    *,
    points_key: str = "points",
    **extra,
) -> int:
    """Print a matrix's table; write its ledger to ``--out`` (default
    ``results/<--name>.json``).

    ``base_config`` leaves out the matrix ``axes``: the base config only
    holds their class defaults, the points carry the values each cell ran.
    """
    print(table)
    base_config = {
        name: value for name, value in base.as_params().items() if name not in axes
    }
    ledger = {
        "name": args.name,
        "kind": kind,
        "base_config": base_config,
        "seed": args.seed,
        points_key: [dataclasses.asdict(point) for point in points],
        "lines": table.splitlines(),
        **extra,
    }
    out = Path(args.out) if args.out else _bench_dir(None) / "results" / f"{args.name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(ledger, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    print(f"ledger written to {out}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.config import RandomExperimentConfig
    from repro.experiments.reporting import render_scenario_matrix
    from repro.experiments.sweep import scenario_cell, sweep_matrix

    scenario_params = _parse_kv(args.scenario_param, "--scenario-param")
    _check_scenarios(args.scenario, scenario_params)
    axes = {"scenario": args.scenario}
    base = _base_config(
        args,
        RandomExperimentConfig,
        axes,
        {"v": (30, 60), "resources": (8, 10), "instances": (1, 3)},
        scenario_params=tuple(sorted(scenario_params.items())),
    )
    strategies = _parse_strategies(args.strategies)
    points = sweep_matrix(
        scenario_cell,
        base,
        axes,
        instances=args.instances,
        strategies=strategies,
        workers=args.workers,
    )
    table = render_scenario_matrix(
        points, strategies=strategies, title=f"Scenario sweep ({args.name})"
    )
    return _write_ledger(
        args,
        "scenario_sweep",
        base,
        axes,
        points,
        table,
        points_key="scenarios",
        instances=args.instances,
        strategies=strategies,
        scenario_params=scenario_params,
    )


# ----------------------------------------------------------------------
# repro multi
# ----------------------------------------------------------------------
def _cmd_multi(args: argparse.Namespace) -> int:
    from repro.core.adaptive import resolve_strategy
    from repro.core.multi_tenant import POLICIES
    from repro.experiments.multi_tenant import MultiTenantConfig, multi_tenant_cell
    from repro.experiments.reporting import render_multi_tenant_matrix
    from repro.experiments.sweep import sweep_matrix

    scenario_params = _parse_kv(args.scenario_param, "--scenario-param")
    scenarios = list(args.scenario) if args.scenario else ["static"]
    _check_scenarios(scenarios, scenario_params)
    if args.tenants <= 0:
        raise CliError("--tenants must be positive")
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    unknown_policies = [p for p in policies if p not in POLICIES]
    if not policies or unknown_policies:
        raise CliError(
            f"unknown policies {unknown_policies or args.policies!r}; "
            f"choose from {', '.join(POLICIES)}"
        )
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise CliError("--strategies must name at least one strategy")
    for name in strategies:
        try:
            resolve_strategy(name, require="reschedule")
        except (KeyError, ValueError) as error:
            raise CliError(str(error).strip('"')) from None
    if args.stretch_limit < 1.0:
        raise CliError("--stretch-limit must be at least 1.0")
    if not 0.0 < args.saturation_threshold <= 1.0:
        raise CliError("--saturation-threshold must be in (0, 1]")
    if args.max_deferrals < 0:
        raise CliError("--max-deferrals must be non-negative")
    axes = {
        "scenario": scenarios,
        "tenants": [args.tenants],
        "arrival_rate": [args.arrival_rate],
        "policy": policies,
        "strategy": strategies,
    }
    base = _base_config(
        args,
        MultiTenantConfig,
        axes,
        {"v": (16, 24), "resources": (8, 10), "max_arrivals": (3, 6)},
        scenario_params=tuple(sorted(scenario_params.items())),
    )
    points = sweep_matrix(multi_tenant_cell, base, axes)
    table = render_multi_tenant_matrix(
        points, title=f"Multi-tenant shared grid ({args.name})"
    )
    return _write_ledger(
        args,
        "multi_workflow_sweep",
        base,
        axes,
        points,
        table,
        tenants=args.tenants,
        arrival_rate=args.arrival_rate,
        policies=policies,
        strategies=strategies,
        scenario_params=scenario_params,
        admission=args.admission,
    )


# ----------------------------------------------------------------------
# repro mc
# ----------------------------------------------------------------------
def _cmd_mc(args: argparse.Namespace) -> int:
    from repro.experiments.config import RandomExperimentConfig
    from repro.experiments.reporting import render_uncertainty_matrix
    from repro.experiments.sweep import sweep_matrix
    from repro.experiments.uncertainty import uncertainty_cell

    if args.error_model not in registry.available("error_model"):
        raise CliError(
            f"unknown error model {args.error_model!r}; "
            f"registered: {', '.join(registry.available('error_model'))}"
        )
    magnitudes = args.magnitude if args.magnitude else [0.0, 0.2, 0.4, 0.6]
    if any(m < 0 for m in magnitudes):
        raise CliError("error magnitudes must be non-negative")
    for magnitude in magnitudes:
        try:
            registry.make(
                "error_model", args.error_model, magnitude=magnitude, seed=args.seed
            )
        except ValueError as error:
            raise CliError(
                f"error model {args.error_model!r} rejected magnitude "
                f"{magnitude!r}: {error}"
            ) from None
    scenarios = list(args.scenario) if args.scenario else ["paper"]
    _check_scenarios(scenarios, {})
    axes = {"scenario": scenarios, "magnitude": magnitudes}
    base = _base_config(
        args,
        RandomExperimentConfig,
        axes,
        {"v": (24, 40), "resources": (8, 10), "instances": (1, 2), "replications": (3, 5)},
    )
    strategies = _parse_strategies(args.strategies)
    points = sweep_matrix(
        uncertainty_cell,
        base,
        axes,
        error_model=args.error_model,
        instances=args.instances,
        replications=args.replications,
        strategies=strategies,
        workers=args.workers,
    )
    table = render_uncertainty_matrix(
        points,
        strategies=strategies,
        title=f"Monte Carlo uncertainty sweep ({args.name})",
    )
    return _write_ledger(
        args,
        "uncertainty_sweep",
        base,
        axes,
        points,
        table,
        error_model=args.error_model,
        magnitudes=[float(m) for m in magnitudes],
        scenarios=scenarios,
        instances=args.instances,
        replications=args.replications,
        strategies=strategies,
    )


# ----------------------------------------------------------------------
# repro compare
# ----------------------------------------------------------------------
def _flatten(value: object, prefix: str = "") -> Iterator[Tuple[str, object]]:
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{index}]")
    else:
        yield prefix, value


def _relative_deviation(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


def _tolerance_for(
    path: str, default: float, per_key: Sequence[Tuple[str, float]]
) -> Optional[float]:
    """Tolerance for ``path`` — ``None`` means the key is ignored."""
    for pattern, tolerance in per_key:
        if fnmatch.fnmatch(path, pattern):
            return tolerance
    return default


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise CliError(f"cannot read {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise CliError(f"{path} is not valid JSON: {error}") from error


def _cmd_compare(args: argparse.Namespace) -> int:
    left = dict(_flatten(_load_json(args.baseline)))
    right = dict(_flatten(_load_json(args.candidate)))
    per_key: List[Tuple[str, float]] = []
    for pair in args.key_tolerance:
        pattern, sep, raw = pair.rpartition("=")
        if not sep or not pattern:
            raise CliError(f"--key-tolerance expects GLOB=FLOAT, got {pair!r}")
        try:
            per_key.append((pattern, float(raw)))
        except ValueError:
            raise CliError(f"--key-tolerance expects GLOB=FLOAT, got {pair!r}") from None

    def ignored(path: str) -> bool:
        if args.only and not any(fnmatch.fnmatch(path, glob) for glob in args.only):
            return True
        return any(fnmatch.fnmatch(path, glob) for glob in args.ignore)

    deviations: List[str] = []
    compared = 0

    for path in sorted(set(left) | set(right)):
        if ignored(path):
            continue
        if path not in left or path not in right:
            if not args.missing_ok:
                side = args.candidate if path not in right else args.baseline
                deviations.append(f"{path}: missing from {side}")
            continue
        a, b = left[path], right[path]
        tolerance = _tolerance_for(path, args.tolerance, per_key)
        a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
        b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
        if a_num and b_num:
            compared += 1
            deviation = _relative_deviation(float(a), float(b))
            if deviation > tolerance:
                deviations.append(
                    f"{path}: {a} vs {b} (rel. dev {deviation:.3g} > {tolerance:g})"
                )
        elif isinstance(a, str) and isinstance(b, str):
            # Embedded numbers (e.g. the human-readable ``lines`` of a
            # ledger) are compared within tolerance; the text around them
            # must match exactly.
            a_nums = [float(m) for m in _NUMBER_RE.findall(a)]
            b_nums = [float(m) for m in _NUMBER_RE.findall(b)]
            a_text = _NUMBER_RE.sub("#", a)
            b_text = _NUMBER_RE.sub("#", b)
            if a_text != b_text or len(a_nums) != len(b_nums):
                deviations.append(f"{path}: text differs: {a!r} vs {b!r}")
                continue
            for index, (x, y) in enumerate(zip(a_nums, b_nums)):
                compared += 1
                deviation = _relative_deviation(x, y)
                if deviation > tolerance:
                    deviations.append(
                        f"{path} (number {index}): {x} vs {y} "
                        f"(rel. dev {deviation:.3g} > {tolerance:g})"
                    )
        elif a != b:
            deviations.append(f"{path}: {a!r} != {b!r}")

    for line in deviations:
        print(f"DEVIATION  {line}")
    status = "FAIL" if deviations else "OK"
    print(
        f"{status}: {compared} numeric value(s) compared, "
        f"{len(deviations)} deviation(s) beyond tolerance {args.tolerance:g} "
        f"({args.baseline} vs {args.candidate})"
    )
    return EXIT_DEVIATION if deviations else EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _scenario_help() -> str:
    """Enumerate the registered scenarios so help text can never drift.

    New scenarios register themselves in :mod:`repro.scenarios.library`;
    building the string dynamically keeps ``--help`` (and the CLI contract
    tests asserting on it) in sync with the registry automatically.
    """
    return (
        "scenario name (repeatable); registered: "
        + ", ".join(registry.available("scenario"))
    )


def _strategy_help(*, adaptive_only: bool = False) -> str:
    """Enumerate the registered strategies so help text can never drift.

    New strategies register themselves with
    :func:`repro.scheduling.registry.register_scheduler`; building the string
    dynamically keeps ``--help`` (and the CLI contract tests asserting on
    it) in sync with the registry automatically.
    """
    from repro.core.adaptive import resolve_strategy
    from repro.experiments.runner import STRATEGY_RUNNERS

    def replans(name: str) -> bool:
        try:
            resolve_strategy(name, require="reschedule")
        except ValueError:
            return False
        return True

    names = registry.available("scheduler")
    if adaptive_only:
        names = [n for n in names if replans(n)]
        return (
            "comma-separated replanning strategies; registered: "
            + ", ".join(names)
        )
    parts = [f"{name} ({registry.describe('scheduler', name)['kind']})" for name in names]
    return (
        "comma-separated strategy names; registered: "
        + ", ".join(parts)
        + "; legacy runners: "
        + ", ".join(sorted(STRATEGY_RUNNERS))
        + "; prefix adaptive:<name> runs any replanning strategy adaptively"
    )


def _error_model_help() -> str:
    """Enumerate the registered error families so help text cannot drift.

    New error models register themselves in
    :data:`repro.workflow.costs.ERROR_MODELS`; building the string
    dynamically keeps ``repro mc --help`` (and the CLI contract tests
    asserting on it) in sync with the registry automatically.
    """
    parts = [
        f"{name} ({registry.describe('error_model', name)['summary']})"
        for name in registry.available("error_model")
    ]
    return "error-model family; registered: " + "; ".join(parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scn = sub.add_parser("scenarios", help="list registered grid-dynamics scenarios")
    p_scn.add_argument("--json", action="store_true", help="machine-readable output")
    p_scn.set_defaults(func=_cmd_scenarios)

    p_str = sub.add_parser(
        "strategies", help="list registered scheduling strategies (name, kind, params)"
    )
    p_str.add_argument("--json", action="store_true", help="machine-readable output")
    p_str.set_defaults(func=_cmd_strategies)

    p_run = sub.add_parser("run", help="run a benchmark from benchmarks/ by name")
    p_run.add_argument("bench", nargs="?", help="benchmark name (fuzzy match)")
    p_run.add_argument("--bench-dir", help="benchmarks directory (default: auto)")
    p_run.add_argument("--list", action="store_true", help="list benchmark names")
    p_run.add_argument(
        "bench_args",
        nargs=argparse.REMAINDER,
        help="script arguments after a literal -- (e.g. repro run kernel -- --quick)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="compare strategies under named scenarios, write a JSON ledger"
    )
    p_sweep.add_argument(
        "--scenario",
        action="append",
        required=True,
        help=_scenario_help(),
    )
    p_sweep.add_argument(
        "--scenario-param",
        action="append",
        default=[],
        metavar="K=V",
        help="override a scenario parameter (applies to every --scenario)",
    )
    p_sweep.add_argument("--name", default="scenario_sweep", help="ledger name")
    p_sweep.add_argument("--out", help="ledger path (default benchmarks/results/<name>.json)")
    p_sweep.add_argument("--v", type=int, default=None, help="jobs per random DAG")
    p_sweep.add_argument("--resources", type=int, default=None, help="initial pool size R")
    p_sweep.add_argument("--ccr", type=float, default=1.0)
    p_sweep.add_argument("--out-degree", type=float, default=0.2)
    p_sweep.add_argument("--beta", type=float, default=0.5)
    p_sweep.add_argument("--instances", type=int, default=None, help="instances averaged")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--strategies", default="HEFT,AHEFT,MinMin", help=_strategy_help()
    )
    p_sweep.add_argument("--workers", type=int, default=None, help="parallel case workers")
    p_sweep.add_argument(
        "--quick", action="store_true", help="CI smoke defaults (v=30, R=8, 1 instance)"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_multi = sub.add_parser(
        "multi",
        help="run concurrent tenant workflow streams on one shared grid",
    )
    p_multi.add_argument("--tenants", type=int, default=4, help="number of tenants")
    p_multi.add_argument(
        "--arrival-rate",
        type=float,
        default=0.005,
        help="Poisson arrival rate per tenant (workflows per time unit)",
    )
    p_multi.add_argument(
        "--scenario",
        action="append",
        default=[],
        help=_scenario_help() + " (default: static)",
    )
    p_multi.add_argument(
        "--scenario-param",
        action="append",
        default=[],
        metavar="K=V",
        help="override a scenario parameter (applies to every --scenario)",
    )
    p_multi.add_argument(
        "--policies",
        default="fifo",
        help="comma-separated interleave policies "
        "(fifo, fair_share, rank_priority, credit_drf)",
    )
    p_multi.add_argument(
        "--strategies",
        default="aheft",
        help=_strategy_help(adaptive_only=True),
    )
    p_multi.add_argument(
        "--admission",
        action="store_true",
        help="put the admission controller in front of the planner "
        "(defer/reject arrivals once the grid saturates)",
    )
    p_multi.add_argument(
        "--stretch-limit",
        type=float,
        default=4.0,
        help="maximum acceptable predicted stretch before deferral",
    )
    p_multi.add_argument(
        "--saturation-threshold",
        type=float,
        default=0.85,
        help="booked fraction of the lookahead window before deferral",
    )
    p_multi.add_argument(
        "--max-deferrals",
        type=int,
        default=4,
        help="failed admission offers before an arrival is rejected",
    )
    p_multi.add_argument(
        "--deadline-factor",
        type=float,
        default=None,
        help="per-workflow deadline = arrival + factor * dedicated span",
    )
    p_multi.add_argument(
        "--slo-stretch",
        type=float,
        default=None,
        help="per-workflow stretch SLO target (violations feed credit scores)",
    )
    p_multi.add_argument("--name", default="multi_tenant", help="ledger name")
    p_multi.add_argument("--out", help="ledger path (default benchmarks/results/<name>.json)")
    p_multi.add_argument("--v", type=int, default=None, help="jobs per random DAG")
    p_multi.add_argument("--resources", type=int, default=None, help="initial pool size R")
    p_multi.add_argument("--parallelism", type=int, default=12, help="application width")
    p_multi.add_argument("--ccr", type=float, default=1.0)
    p_multi.add_argument("--beta", type=float, default=0.5)
    p_multi.add_argument(
        "--max-arrivals", type=int, default=None, help="arrival cap per tenant"
    )
    p_multi.add_argument("--horizon", type=float, default=8000.0)
    p_multi.add_argument("--seed", type=int, default=0)
    p_multi.add_argument(
        "--quick", action="store_true", help="CI smoke defaults (v=16, R=8, 3 arrivals)"
    )
    p_multi.set_defaults(func=_cmd_multi)

    p_mc = sub.add_parser(
        "mc",
        help="Monte Carlo uncertainty sweep: replicated runs under sampled "
        "ground-truth runtimes, write a JSON ledger",
    )
    p_mc.add_argument(
        "--error-model",
        default="resource_bias",
        help=_error_model_help(),
    )
    p_mc.add_argument(
        "--magnitude",
        action="append",
        type=float,
        default=[],
        help="error magnitude (repeatable; default 0.0 0.2 0.4 0.6)",
    )
    p_mc.add_argument(
        "--scenario",
        action="append",
        default=[],
        help=_scenario_help() + " (default: paper)",
    )
    p_mc.add_argument(
        "--strategies", default="HEFT,AHEFT", help=_strategy_help()
    )
    p_mc.add_argument("--name", default="uncertainty", help="ledger name")
    p_mc.add_argument("--out", help="ledger path (default benchmarks/results/<name>.json)")
    p_mc.add_argument("--v", type=int, default=None, help="jobs per random DAG")
    p_mc.add_argument("--resources", type=int, default=None, help="initial pool size R")
    p_mc.add_argument("--ccr", type=float, default=1.0)
    p_mc.add_argument("--out-degree", type=float, default=0.2)
    p_mc.add_argument("--beta", type=float, default=0.5)
    p_mc.add_argument(
        "--instances", type=int, default=None, help="workflow instances per cell"
    )
    p_mc.add_argument(
        "--replications",
        type=int,
        default=None,
        help="independent truth samples per instance",
    )
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--workers", type=int, default=None, help="parallel case workers")
    p_mc.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke defaults (v=24, R=8, 1 instance, 3 replications)",
    )
    p_mc.set_defaults(func=_cmd_mc)

    p_cmp = sub.add_parser(
        "compare",
        help="compare two JSON ledgers; exit 1 when a metric deviates beyond tolerance",
    )
    p_cmp.add_argument("baseline", help="baseline ledger (committed)")
    p_cmp.add_argument("candidate", help="candidate ledger (freshly generated)")
    p_cmp.add_argument(
        "--tolerance",
        type=float,
        default=1e-6,
        help="default max relative deviation (default 1e-6)",
    )
    p_cmp.add_argument(
        "--key-tolerance",
        action="append",
        default=[],
        metavar="GLOB=FLOAT",
        help="per-key tolerance override (first matching glob wins)",
    )
    p_cmp.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="GLOB",
        help="ignore keys matching this glob (repeatable)",
    )
    p_cmp.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="GLOB",
        help="compare only keys matching one of these globs",
    )
    p_cmp.add_argument(
        "--missing-ok",
        action="store_true",
        help="do not treat keys present in only one ledger as deviations",
    )
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(raw)
    args.raw_argv = raw
    from repro.scenarios import ScenarioError

    try:
        return args.func(args)
    except (CliError, ScenarioError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
