"""Run one experiment case under the competing strategies.

A *case* is a priced workflow (:class:`~repro.generators.costs.WorkflowCase`)
plus a resource-change model.  :func:`run_case` evaluates the strategies the
paper compares — static HEFT, adaptive AHEFT and dynamic Min-Min — and
returns their makespans together with the improvement rate of AHEFT over
HEFT, which is the paper's headline metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import registry
from repro.core.adaptive import resolve_strategy
from repro.experiments.metrics import improvement_rate
from repro.facade import RunResult, run as facade_run
from repro.generators.costs import WorkflowCase
from repro.resources.dynamics import ResourceChangeModel, StaticResourceModel
from repro.resources.pool import ResourcePool

__all__ = [
    "ExperimentCase",
    "CaseResult",
    "run_case",
    "run_case_batch",
    "run_instances",
    "available_strategy_names",
    "resolve_strategy_runner",
    "STRATEGY_RUNNERS",
]

#: legacy ledger label -> ``(mode, registry name, options)`` of the
#: ``repro.run`` call it stands for.  The capitalised labels predate the
#: scheduling registry and are kept because committed benchmark baselines
#: key on them; every *registry* name (``heft``, ``cpop``, ``heft_dup``, ...)
#: resolves through :func:`resolve_strategy_runner` as well, plus the
#: ``adaptive:<name>`` prefix that runs any replanning-capable strategy
#: inside the adaptive loop (the AHEFT ablation hook).
STRATEGY_RUNNERS: Dict[str, Tuple[str, str, Dict[str, object]]] = {
    "HEFT": ("static", "heft", {}),
    "AHEFT": ("adaptive", "aheft", {}),
    "MinMin": ("dynamic", "minmin", {}),
    "MaxMin": ("dynamic", "maxmin", {}),
    "Sufferage": ("dynamic", "sufferage", {}),
    "AHEFT-always": ("adaptive", "aheft", {"accept_only_if_better": False}),
}

#: prefix that forces a registry strategy through the adaptive loop
ADAPTIVE_PREFIX = "adaptive:"


def resolve_strategy_runner(name: str) -> Callable:
    """Runner for a legacy label, a registry name, or ``adaptive:<name>``.

    The runner is ``runner(workflow, costs, pool, **kwargs) -> RunResult``
    (``perf_profile=...`` is forwarded for scenario runs).
    """
    if name in STRATEGY_RUNNERS:
        mode, base, options = STRATEGY_RUNNERS[name]
    else:
        base = name.removeprefix(ADAPTIVE_PREFIX)
        if base not in registry.available("scheduler"):
            raise KeyError(
                f"unknown strategy {name!r}; available: {available_strategy_names()}"
            )
        mode = registry.describe("scheduler", base)["kind"]
        if base != name or mode == "adaptive":
            try:
                resolve_strategy(base, require="reschedule")
            except ValueError:
                # reject at resolution time so callers (the CLI in
                # particular) fail fast instead of crashing mid-sweep
                raise KeyError(
                    f"strategy {name!r}: {base!r} cannot replan "
                    "(no reschedule interface)"
                ) from None
            mode = "adaptive"
        options = {}
    return lambda wf, costs, pool, **kw: facade_run(
        wf, pool, mode=mode, costs=costs, strategy=base, **options, **kw
    )


def available_strategy_names() -> List[str]:
    """Every name :func:`resolve_strategy_runner` accepts (prefix aside)."""
    return sorted(set(STRATEGY_RUNNERS) | set(registry.available("scheduler")))


@dataclass
class ExperimentCase:
    """One workload instance paired with its resource dynamics.

    ``resource_model`` provides the initial pool size (the paper's ``R``)
    and, when no ``scenario`` is set, the full pool dynamics.  With a
    ``scenario`` the scenario engine materialises the dynamics instead:
    the pool, the departure schedule and the performance profile all come
    from ``materialize(scenario, initial_size=R, seed=scenario_seed)``.
    """

    case: WorkflowCase
    resource_model: ResourceChangeModel | StaticResourceModel
    label: str = ""
    scenario: Optional[object] = None
    scenario_seed: int = 0

    @property
    def initial_size(self) -> int:
        if isinstance(self.resource_model, ResourceChangeModel):
            return self.resource_model.initial_size
        return self.resource_model.size

    def build_pool(self) -> ResourcePool:
        if self.scenario is not None:
            return self.build_scenario_run().pool
        return self.resource_model.build_pool()

    def build_scenario_run(self):
        """Materialise the scenario into a pool + performance profile."""
        if self.scenario is None:
            raise ValueError("experiment case has no scenario")
        from repro.scenarios import materialize

        return materialize(
            self.scenario, initial_size=self.initial_size, seed=self.scenario_seed
        )

    def params(self) -> Dict[str, object]:
        params = dict(self.case.params)
        params["resources"] = self.initial_size
        if self.scenario is not None:
            # the scenario drives the dynamics: report *its* parameters, not
            # the inactive (R, Δ, δ) settings of the resource model
            params["scenario"] = getattr(self.scenario, "name", str(self.scenario))
            params["scenario_params"] = self.scenario.params()
            params["scenario_seed"] = self.scenario_seed
        elif isinstance(self.resource_model, ResourceChangeModel):
            params.update(
                {
                    "interval": self.resource_model.interval,
                    "fraction": self.resource_model.fraction,
                }
            )
        return params


@dataclass
class CaseResult:
    """Makespans (and recovery metrics) of every strategy on one case."""

    params: Dict[str, object]
    makespans: Dict[str, float]
    rescheduling_counts: Dict[str, int] = field(default_factory=dict)
    wasted_work: Dict[str, float] = field(default_factory=dict)
    killed_jobs: Dict[str, int] = field(default_factory=dict)

    def makespan(self, strategy: str) -> float:
        return self.makespans[strategy]

    def improvement(self, baseline: str = "HEFT", improved: str = "AHEFT") -> float:
        """Improvement rate of ``improved`` over ``baseline`` on this case."""
        if baseline not in self.makespans or improved not in self.makespans:
            raise KeyError(
                f"strategies {baseline!r}/{improved!r} not present; "
                f"available: {sorted(self.makespans)}"
            )
        return improvement_rate(self.makespans[baseline], self.makespans[improved])

    def strategies(self) -> List[str]:
        return list(self.makespans.keys())


def run_case(
    experiment: ExperimentCase,
    *,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    error_model=None,
) -> CaseResult:
    """Evaluate one case under the requested strategies.

    Each strategy gets its own freshly built resource pool from the case's
    resource model, so strategies never interfere with each other.  With an
    ``error_model`` (see :class:`~repro.workflow.costs.ErrorModel`) every
    strategy executes against the *same* sampled ground-truth durations
    while planning on the unperturbed estimates — the estimate-error
    dimension of the uncertainty experiments.
    """
    runners = {name: resolve_strategy_runner(name) for name in strategies}

    makespans: Dict[str, float] = {}
    rescheduling_counts: Dict[str, int] = {}
    wasted_work: Dict[str, float] = {}
    killed_jobs: Dict[str, int] = {}
    extra: Dict[str, object] = {}
    if error_model is not None:
        extra["error_model"] = error_model
    for strategy in strategies:
        if experiment.scenario is not None:
            scenario_run = experiment.build_scenario_run()
            result: RunResult = runners[strategy](
                experiment.case.workflow,
                experiment.case.costs,
                scenario_run.pool,
                perf_profile=scenario_run.profile,
                **extra,
            )
        else:
            pool = experiment.build_pool()
            result = runners[strategy](
                experiment.case.workflow, experiment.case.costs, pool, **extra
            )
        makespans[strategy] = result.makespan
        rescheduling_counts[strategy] = result.rescheduling_count
        wasted_work[strategy] = getattr(result, "wasted_work", 0.0)
        killed_jobs[strategy] = getattr(result, "killed_jobs", 0)
    params = experiment.params()
    if error_model is not None:
        params["error_model"] = error_model.name
        params["error_magnitude"] = error_model.magnitude
        params["replication"] = error_model.replication
    return CaseResult(
        params=params,
        makespans=makespans,
        rescheduling_counts=rescheduling_counts,
        wasted_work=wasted_work,
        killed_jobs=killed_jobs,
    )


def _run_case_worker(payload) -> CaseResult:
    """Top-level worker so :class:`ProcessPoolExecutor` can pickle it."""
    experiment, strategies, error_model = payload
    return run_case(experiment, strategies=strategies, error_model=error_model)


def run_case_batch(
    experiments: Sequence[ExperimentCase],
    *,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    workers: Optional[int] = None,
    error_models: Optional[Sequence] = None,
) -> List[CaseResult]:
    """Run a batch of cases, optionally across ``workers`` processes.

    Cases are fully self-contained (every case builds its own pool and all
    randomness is derived from per-case seeds stored in the configs), so
    parallel execution is deterministic: the result list is always in
    submission order and every case produces the same result it would
    serially, regardless of worker count or completion order.

    ``error_models`` (aligned with ``experiments``) attaches a sampled
    ground truth to each case — the Monte Carlo replication harness passes
    one :class:`~repro.workflow.costs.ErrorModel` per (case, replication)
    pair.  Error models are frozen dataclasses and every draw derives from
    their ``(seed, replication, scope)``, so they cross process boundaries
    without losing determinism.

    ``workers=None`` (or ``<= 1``) runs serially.
    """
    experiments = list(experiments)
    if error_models is None:
        error_models = [None] * len(experiments)
    else:
        error_models = list(error_models)
        if len(error_models) != len(experiments):
            raise ValueError(
                f"error_models length {len(error_models)} does not match "
                f"{len(experiments)} experiments"
            )
    if not workers or workers <= 1 or len(experiments) < 2:
        return [
            run_case(experiment, strategies=strategies, error_model=error_model)
            for experiment, error_model in zip(experiments, error_models)
        ]
    from concurrent.futures import ProcessPoolExecutor

    payloads = [
        (experiment, tuple(strategies), error_model)
        for experiment, error_model in zip(experiments, error_models)
    ]
    with ProcessPoolExecutor(max_workers=int(workers)) as executor:
        return list(executor.map(_run_case_worker, payloads))


def run_instances(
    config,
    *,
    instances: int,
    strategies: Sequence[str],
    workers: Optional[int] = None,
    error_model=None,
    replications: int = 1,
) -> List[CaseResult]:
    """Run ``instances`` generated instances of one experiment config.

    Instance ``i`` is ``config`` with ``instance=i`` and seed
    ``config.seed + i``, so every cell of a sweep runs the same workloads.
    With an ``error_model`` every instance runs under ``replications``
    independent sampled truths: replication ``r`` of instance ``i`` draws
    ``error_model.for_replication(r).scoped(f"i{i}")``.  Results come
    instance-major, replications innermost.
    """
    experiments = [
        replace(config, instance=i, seed=config.seed + i).to_experiment_case()
        for i in range(instances)
    ]
    if error_model is None:
        return run_case_batch(experiments, strategies=strategies, workers=workers)
    runs = [divmod(k, replications) for k in range(instances * replications)]
    return run_case_batch(
        [experiments[i] for i, _ in runs],
        strategies=strategies,
        workers=workers,
        error_models=[error_model.for_replication(r).scoped(f"i{i}") for i, r in runs],
    )
