"""Experiment harness: the paper's evaluation (§4) as reusable code.

Every experiment is one matrix: :func:`~repro.experiments.sweep.sweep_matrix`
walks the cartesian product of named axes and hands each cell's config to
the mode's cell, which returns one plain-dataclass point
(``dataclasses.asdict(point)`` is its ledger form).

* :mod:`~repro.experiments.config` — the parameter grids of Tables 2 and 5,
* :mod:`~repro.experiments.runner` — run one case (or the instances of one
  config) under the competing strategies (static HEFT, adaptive AHEFT,
  dynamic Min-Min, any registered scheduler),
* :mod:`~repro.experiments.sweep` — the driver, the instance-averaged and
  scenario cells, and the paper's one-parameter sweeps as axis declarations,
* :mod:`~repro.experiments.multi_tenant` — the shared-grid cell and its
  flow/stretch/fairness metrics,
* :mod:`~repro.experiments.uncertainty` — the Monte Carlo cell over
  stochastic ground-truth runtimes (the estimate-error dimension),
* :mod:`~repro.experiments.metrics` — makespan, improvement rate, CI95,
  SLR, speedup, utilisation,
* :mod:`~repro.experiments.reporting` — plain-text tables and series that
  mirror the paper's tables and figures.
"""

from repro.experiments.config import (
    RANDOM_DAG_GRID,
    APPLICATION_GRID,
    RandomExperimentConfig,
    ApplicationExperimentConfig,
)
from repro.experiments.runner import (
    CaseResult,
    ExperimentCase,
    run_case,
    run_case_batch,
    run_instances,
    STRATEGY_RUNNERS,
)
from repro.experiments.sweep import (
    ScenarioPoint,
    SweepPoint,
    instances_cell,
    scenario_cell,
    sweep_application_parameter,
    sweep_matrix,
    sweep_random_parameter,
)
from repro.experiments.metrics import (
    improvement_rate,
    jain_fairness_index,
    makespan_statistics,
    percentile,
    schedule_length_ratio,
    speedup,
    average,
)
from repro.experiments.multi_tenant import (
    MultiTenantCaseResult,
    MultiTenantConfig,
    MultiTenantMetrics,
    MultiWorkflowPoint,
    TenantMetrics,
    multi_tenant_cell,
    run_multi_tenant_case,
)
from repro.experiments.uncertainty import UncertaintyPoint, uncertainty_cell
from repro.experiments.reporting import (
    format_table,
    render_improvement_table,
    render_series,
    render_case_results,
    render_scenario_matrix,
    render_multi_tenant_matrix,
    render_uncertainty_matrix,
)

__all__ = [
    "RANDOM_DAG_GRID",
    "APPLICATION_GRID",
    "RandomExperimentConfig",
    "ApplicationExperimentConfig",
    "CaseResult",
    "ExperimentCase",
    "run_case",
    "run_case_batch",
    "run_instances",
    "STRATEGY_RUNNERS",
    "sweep_matrix",
    "instances_cell",
    "scenario_cell",
    "multi_tenant_cell",
    "uncertainty_cell",
    "SweepPoint",
    "ScenarioPoint",
    "MultiWorkflowPoint",
    "UncertaintyPoint",
    "sweep_random_parameter",
    "sweep_application_parameter",
    "improvement_rate",
    "jain_fairness_index",
    "makespan_statistics",
    "percentile",
    "schedule_length_ratio",
    "speedup",
    "average",
    "MultiTenantCaseResult",
    "MultiTenantConfig",
    "MultiTenantMetrics",
    "TenantMetrics",
    "run_multi_tenant_case",
    "format_table",
    "render_improvement_table",
    "render_series",
    "render_case_results",
    "render_scenario_matrix",
    "render_multi_tenant_matrix",
    "render_uncertainty_matrix",
]
