"""The one public entry point: ``repro.run(...)`` -> :class:`RunResult`.

Every execution mode of the reproduction — the paper's three head-to-head
strategies and the multi-tenant shared grid — is reachable through a
single call:

>>> import repro
>>> result = repro.run(workflow, pool, costs=costs, mode="adaptive")
... # doctest: +SKIP
>>> result.makespan, result.rescheduling_count            # doctest: +SKIP

``mode`` selects the execution path, every path running on the shared
discrete-event core (:mod:`repro.simulation.event_core`):

``"static"``
    plan once at t=0; simulate only when something can surprise the plan,
``"adaptive"``
    the paper's Fig. 2 replanning loop (AHEFT by default),
``"dynamic"``
    just-in-time batch mapping (Min-Min by default),
``"multi"``
    a multi-tenant arrival stream on one shared pool.

Components are addressed by registry name (:mod:`repro.registry`):
``strategy`` and ``error_model`` accept either a registered name or a
ready-made object, ``scenario`` a name or a
:class:`~repro.scenarios.base.Scenario` — a scenario is materialised into
the pool and performance profile, so ``pool`` is then replaced by the
``resources`` initial size.  Remaining keyword ``options`` are forwarded
verbatim to the underlying runner: ``actual_costs=`` and ``history=`` in
every single-workflow mode, ``simulate=`` (static),
``accept_only_if_better=`` and ``replan_on_deviation=``
(adaptive), and ``policy=``, ``tenant_weights=``,
``accept_only_if_better=``, ``scheduler_factory=``, ``credit_ledger=``
and ``admission=`` for overload control (multi).

The returned :class:`RunResult` is a uniform view — ``schedule``,
``trace``, ``outcomes``, ``decisions``, ``metrics`` and the headline
numbers — over the mode-specific result object, which stays available as
``result.raw`` (an :class:`~repro.core.adaptive.AdaptiveRunResult` or a
:class:`~repro.simulation.shared_grid.SharedGridResult`, bit-identical to
what the mode's runner returned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import registry

__all__ = ["MODES", "RunResult", "run"]

#: the execution modes understood by :func:`run`
MODES = ("static", "adaptive", "dynamic", "multi")


@dataclass(frozen=True)
class RunResult:
    """Uniform result protocol over every execution mode.

    ``raw`` is the mode-specific result (``AdaptiveRunResult`` for
    single-workflow modes, ``SharedGridResult`` for ``"multi"``); all
    other accessors are derived views so callers can stay mode-agnostic.
    """

    mode: str
    strategy: str
    raw: object

    # -- uniform views --------------------------------------------------
    @property
    def schedule(self):
        """The final schedule (``None`` in multi mode — see ``outcomes``)."""
        return getattr(self.raw, "final_schedule", None)

    @property
    def trace(self):
        """The execution trace, when the run was simulated."""
        return getattr(self.raw, "trace", None)

    @property
    def outcomes(self) -> List:
        """Per-workflow outcomes (multi mode; empty otherwise)."""
        return list(getattr(self.raw, "outcomes", ()) or ())

    @property
    def decisions(self) -> List:
        """Every rescheduling decision taken during the run."""
        if self.mode == "multi":
            return [
                decision
                for outcome in self.raw.outcomes
                for decision in outcome.decisions
            ]
        return list(self.raw.decisions)

    # -- headline numbers -----------------------------------------------
    @property
    def makespan(self) -> float:
        value = self.raw.makespan
        return value() if callable(value) else value

    @property
    def rescheduling_count(self) -> int:
        if self.mode == "multi":
            return sum(outcome.reschedule_count for outcome in self.raw.outcomes)
        return self.raw.rescheduling_count

    @property
    def wasted_work(self) -> float:
        if self.mode == "multi":
            return self.raw.total_wasted_work()
        return self.raw.wasted_work

    @property
    def killed_jobs(self) -> int:
        if self.mode == "multi":
            return self.raw.total_killed_jobs()
        return self.raw.killed_jobs

    @property
    def metrics(self) -> Dict[str, object]:
        """The headline numbers as one JSON-friendly mapping."""
        metrics: Dict[str, object] = {
            "mode": self.mode,
            "strategy": self.strategy,
            "makespan": self.makespan,
            "rescheduling_count": self.rescheduling_count,
            "wasted_work": self.wasted_work,
            "killed_jobs": self.killed_jobs,
        }
        if self.mode == "multi":
            metrics["workflows"] = len(self.raw.outcomes)
            if getattr(self.raw, "admission", None):
                metrics["rejected_workflows"] = self.raw.rejected_count
                metrics["deferred_offers"] = self.raw.deferral_count
            credits = getattr(self.raw, "credits", None)
            if credits:
                metrics["credits"] = dict(credits)
        else:
            metrics["initial_makespan"] = self.raw.initial_makespan
            metrics["evaluated_events"] = self.raw.evaluated_events
        return metrics


def _is_workflow(obj) -> bool:
    from repro.workflow.dag import Workflow

    return isinstance(obj, Workflow)


def _resolve_mode(mode: Optional[str], workload, strategy) -> str:
    if mode is not None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        return mode
    if not _is_workflow(workload):
        return "multi"
    if isinstance(strategy, str):
        kind = registry.describe("scheduler", strategy)["kind"]
        if kind in MODES:
            return kind
    return "adaptive"


def run(
    workload,
    pool=None,
    *,
    mode: Optional[str] = None,
    strategy=None,
    costs=None,
    scenario=None,
    error_model=None,
    perf_profile=None,
    resources: Optional[int] = None,
    seed: int = 0,
    horizon: float = 8000.0,
    **options,
) -> RunResult:
    """Run ``workload`` on ``pool`` under one strategy; see the module docs.

    Parameters
    ----------
    workload:
        A :class:`~repro.workflow.dag.Workflow` (single-workflow modes) or
        a workload — a :class:`~repro.workload.streams.WorkloadStream` or a
        sequence of :class:`~repro.workload.streams.WorkflowArrival` —
        for ``mode="multi"``.
    pool:
        The :class:`~repro.resources.pool.ResourcePool` to run on.  Omit
        it when a ``scenario`` materialises the pool instead.
    mode:
        One of :data:`MODES`.  Defaults to ``"multi"`` for workloads,
        otherwise to the named strategy's registered kind (``"adaptive"``
        when no name decides).
    strategy:
        A registered scheduler name (see ``repro.registry.available
        ("scheduler")``) or a scheduler object with the interface the
        mode requires.
    costs:
        The estimated :class:`~repro.workflow.costs.CostModel`; required
        in single-workflow modes (multi-mode workloads price themselves).
    scenario:
        A registered scenario name or :class:`~repro.scenarios.base
        .Scenario`; materialised with ``resources``/``seed``/``horizon``
        into the pool and (unless overridden) the performance profile.
    resources:
        Initial pool size of the materialised ``scenario`` (default 10);
        rejected without one.
    error_model:
        A registered error-family name or
        :class:`~repro.workflow.costs.ErrorModel`; switches the run to a
        sampled ground truth.
    options:
        Forwarded verbatim to the underlying runner.
    """
    if scenario is not None:
        if pool is not None:
            raise ValueError(
                "pass either pool= or scenario= (the scenario materialises "
                "its own pool), not both"
            )
        if isinstance(scenario, str):
            scenario = registry.make("scenario", scenario)
        from repro.scenarios import materialize

        scenario_run = materialize(
            scenario,
            initial_size=resources if resources is not None else 10,
            seed=seed,
            horizon=horizon,
        )
        pool = scenario_run.pool
        if perf_profile is None:
            perf_profile = scenario_run.profile
    elif resources is not None:
        raise ValueError(
            "resources= sizes the pool a scenario= materialises; it has no "
            "effect on an explicit pool="
        )
    if pool is None:
        raise ValueError("no pool: pass pool= or scenario=")
    if isinstance(error_model, str):
        error_model = registry.make("error_model", error_model, seed=seed)

    mode = _resolve_mode(mode, workload, strategy)

    if mode == "multi":
        if costs is not None:
            raise ValueError(
                "mode='multi' prices workflows from the workload itself; "
                "costs= is not accepted"
            )
        arrivals = workload.arrivals() if hasattr(workload, "arrivals") else workload
        if strategy is not None and not isinstance(strategy, str):
            raise ValueError(
                "mode='multi' takes a registered strategy name; pass "
                "scheduler_factory= for custom scheduler objects"
            )
        from repro.simulation.shared_grid import SharedGridExecutor

        raw = SharedGridExecutor(
            arrivals,
            pool,
            perf_profile=perf_profile,
            strategy=strategy,
            error_model=error_model,
            **options,
        ).run()
        # labelled by the scheduler's own name, like every other mode
        factory = options.get("scheduler_factory")
        if factory is not None:
            scheduler = factory()
        elif strategy is not None:
            scheduler = registry.make("scheduler", strategy)
        else:
            scheduler = registry.make("scheduler", "aheft")
        label = getattr(scheduler, "name", type(scheduler).__name__)
        return RunResult(mode=mode, strategy=label, raw=raw)

    if not _is_workflow(workload):
        raise ValueError(
            f"mode={mode!r} runs a single Workflow; got {type(workload).__name__} "
            "(pass mode='multi' for arrival streams)"
        )
    if costs is None:
        raise ValueError(f"mode={mode!r} requires the estimated costs= model")

    from repro.core import adaptive as _adaptive

    runner = {
        "static": _adaptive._execute_static,
        "adaptive": _adaptive._execute_adaptive,
        "dynamic": _adaptive._execute_dynamic,
    }[mode]
    raw = runner(
        workload,
        costs,
        pool,
        strategy=strategy,
        error_model=error_model,
        perf_profile=perf_profile,
        **options,
    )
    return RunResult(mode=mode, strategy=raw.strategy, raw=raw)
