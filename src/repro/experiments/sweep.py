"""The experiment matrix: one axis-product driver over per-mode cells.

The paper's evaluation (§4: Tables 2–8 and the six Fig. 8 panels) and
every extension matrix share one shape: vary some parameters, run each
strategy on the same instances, and aggregate.  :func:`sweep_matrix` is
that shape.  It walks the cartesian product of named axes in their
declared order, derives each cell's config with
``dataclasses.replace(base, **combo)`` and hands it to the mode's *cell*,
a function from one config to one point:

* :func:`instances_cell` — mean makespans over generated instances, the
  random-DAG and application sweeps (:class:`SweepPoint`);
* :func:`scenario_cell` — the same means plus reschedules and wasted work
  under the config's scenario (:class:`ScenarioPoint`);
* :func:`~repro.experiments.multi_tenant.multi_tenant_cell` — one
  shared-grid run
  (:class:`~repro.experiments.multi_tenant.MultiWorkflowPoint`);
* :func:`~repro.experiments.uncertainty.uncertainty_cell` — replicated
  runs under sampled ground truths
  (:class:`~repro.experiments.uncertainty.UncertaintyPoint`).

Points are plain dataclasses: ``dataclasses.asdict(point)`` is their
ledger form.  :func:`sweep_random_parameter` and
:func:`sweep_application_parameter` declare the paper's one-parameter
sweeps (Tables 3, 4, 7, 8 and Fig. 8) as a single axis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments.config import (
    ApplicationExperimentConfig,
    RandomExperimentConfig,
)
from repro.experiments.metrics import average, improvement_rate
from repro.experiments.runner import CaseResult, run_instances

__all__ = [
    "SweepPoint",
    "ScenarioPoint",
    "sweep_matrix",
    "instances_cell",
    "scenario_cell",
    "sweep_random_parameter",
    "sweep_application_parameter",
]


def sweep_matrix(
    cell: Callable[..., object],
    base,
    axes: Mapping[str, Sequence[object]],
    **options,
) -> List[object]:
    """One point per combination of ``axes``; the last axis varies fastest.

    An axis that names a field of the ``base`` config varies the cell's
    config (``dataclasses.replace(base, **combo)``); any other axis (the
    uncertainty cell's ``magnitude``) reaches ``cell`` as a keyword, next
    to ``options``.
    """
    names = list(axes)
    config_fields = {f.name for f in fields(base)}
    points = []
    for values in itertools.product(*axes.values()):
        combo = dict(zip(names, values))
        config = replace(
            base, **{k: v for k, v in combo.items() if k in config_fields}
        )
        extra = {k: v for k, v in combo.items() if k not in config_fields}
        points.append(cell(config, **extra, **options))
    return points


@dataclass(kw_only=True)
class _MeanMakespans:
    case_count: int
    mean_makespans: Dict[str, float]

    def improvement(self, baseline: str = "HEFT", improved: str = "AHEFT") -> float:
        """Improvement rate computed on the averaged makespans (as the paper does)."""
        return improvement_rate(
            self.mean_makespans[baseline], self.mean_makespans[improved]
        )


@dataclass(kw_only=True)
class SweepPoint(_MeanMakespans):
    """Mean makespans at one value of the swept parameter."""

    parameter: str
    value: object


@dataclass(kw_only=True)
class ScenarioPoint(_MeanMakespans):
    """Mean makespans, reschedules and wasted work under one scenario."""

    scenario: str
    description: str
    mean_reschedules: Dict[str, float]
    mean_wasted_work: Dict[str, float]


def _means(
    results: Sequence[CaseResult], metric: str, strategies: Sequence[str]
) -> Dict[str, float]:
    """Per-strategy mean of one :class:`CaseResult` metric."""
    return {
        strategy: average(getattr(result, metric)[strategy] for result in results)
        for strategy in strategies
    }


def instances_cell(
    config,
    *,
    parameter: str,
    instances: int,
    strategies: Sequence[str],
    workers: Optional[int] = None,
) -> SweepPoint:
    """Mean makespan per strategy over ``instances`` instances of ``config``."""
    results = run_instances(
        config, instances=instances, strategies=strategies, workers=workers
    )
    return SweepPoint(
        parameter=parameter,
        value=getattr(config, parameter),
        case_count=len(results),
        mean_makespans=_means(results, "makespans", strategies),
    )


def scenario_cell(
    config,
    *,
    instances: int,
    strategies: Sequence[str],
    workers: Optional[int] = None,
) -> ScenarioPoint:
    """The strategies compared under ``config``'s scenario.

    Every scenario runs the *same* instances, so differences between
    scenario rows are caused by the dynamics, not by workload sampling
    noise.  Reported per strategy: mean makespan, mean adopted-reschedule
    count and mean wasted work (execution time thrown away when
    departures kill running jobs).
    """
    results = run_instances(
        config, instances=instances, strategies=strategies, workers=workers
    )
    scenario = config.build_scenario()
    return ScenarioPoint(
        scenario=scenario.name,
        description=scenario.describe(),
        case_count=len(results),
        mean_makespans=_means(results, "makespans", strategies),
        mean_reschedules=_means(results, "rescheduling_counts", strategies),
        mean_wasted_work=_means(results, "wasted_work", strategies),
    )


def _parameter_sweep(base, parameter, values, **options) -> List[SweepPoint]:
    if parameter not in {f.name for f in fields(base)}:
        raise ValueError(f"unknown {type(base).__name__} parameter: {parameter!r}")
    return sweep_matrix(
        instances_cell, base, {parameter: values}, parameter=parameter, **options
    )


def sweep_random_parameter(
    parameter: str,
    values: Sequence[object],
    *,
    base_config: Optional[RandomExperimentConfig] = None,
    instances: int = 3,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[SweepPoint]:
    """Sweep one Table 2 parameter on random DAGs, averaging over instances."""
    base = replace(base_config or RandomExperimentConfig(), seed=seed)
    return _parameter_sweep(
        base, parameter, values,
        instances=instances, strategies=strategies, workers=workers,
    )


def sweep_application_parameter(
    application: str,
    parameter: str,
    values: Sequence[object],
    *,
    base_config: Optional[ApplicationExperimentConfig] = None,
    instances: int = 3,
    strategies: Sequence[str] = ("HEFT", "AHEFT"),
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[SweepPoint]:
    """Sweep one Table 5 parameter on an application DAG (BLAST/WIEN2K/Montage)."""
    base = replace(
        base_config or ApplicationExperimentConfig(),
        application=application,
        seed=seed,
    )
    return _parameter_sweep(
        base, parameter, values,
        instances=instances, strategies=strategies, workers=workers,
    )
