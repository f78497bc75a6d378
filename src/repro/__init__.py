"""repro — reproduction of *An Adaptive Rescheduling Strategy for Grid
Workflow Applications* (Zhifeng Yu & Weisong Shi, IPDPS 2007).

The package implements the paper's contribution — the AHEFT adaptive
rescheduling algorithm and the Planner/Executor collaboration around it —
together with every substrate the evaluation needs: the workflow DAG model,
heterogeneous dynamic resource pools, the HEFT and dynamic Min-Min
baselines, a discrete-event grid simulator, the random/BLAST/WIEN2K workflow
generators and the experiment harness that regenerates the paper's tables
and figures.

Quickstart
----------
Every execution mode goes through one entry point, :func:`repro.run`:

>>> import repro
>>> case = repro.generate_blast_case(50, ccr=5.0, beta=0.5, seed=7)
>>> pool = repro.ResourceChangeModel(initial_size=10, interval=400, fraction=0.2).build_pool()
>>> heft = repro.run(case.workflow, pool, costs=case.costs, mode="static")
>>> aheft = repro.run(case.workflow, pool, costs=case.costs, mode="adaptive")
>>> aheft.makespan <= heft.makespan
True

Strategies, scenarios and error models are addressed by name through one
registry facade (:mod:`repro.registry`): ``repro.registry.available
("scheduler")``, ``repro.run(..., strategy="cpop", scenario="paper",
error_model="gaussian")``.
"""

from repro import registry
from repro.facade import RunResult, run

from repro.workflow import (
    Job,
    Workflow,
    CostModel,
    TabularCostModel,
    HeterogeneousCostModel,
    UniformCostModel,
    upward_ranks,
    critical_path,
    parallelism_profile,
)
from repro.resources import (
    Resource,
    ResourcePool,
    ResourceChangeModel,
    StaticResourceModel,
)
from repro.scheduling import (
    Assignment,
    Schedule,
    ExecutionState,
    JobStatus,
    HEFTScheduler,
    heft_schedule,
    AHEFTScheduler,
    aheft_reschedule,
    MinMinScheduler,
    validate_schedule,
)
from repro.core import (
    Predictor,
    PerformanceHistoryRepository,
    AdaptiveReschedulingLoop,
    WhatIfAnalyzer,
)
from repro.simulation import (
    StaticScheduleExecutor,
    JustInTimeExecutor,
    ExecutionTrace,
    render_gantt,
)
from repro.generators import (
    WorkflowCase,
    RandomDAGParameters,
    generate_random_case,
    generate_blast_case,
    generate_wien2k_case,
    generate_montage_case,
    sample_dag_case,
    sample_dag_pool,
)
from repro.experiments import (
    ExperimentCase,
    CaseResult,
    run_case,
    sweep_random_parameter,
    sweep_application_parameter,
    improvement_rate,
    render_improvement_table,
    render_series,
)
from repro.scenarios import (
    Scenario,
    ScenarioRun,
    PerformanceProfile,
    ScaledCostModel,
    available_scenarios,
    compose,
    make_scenario,
    materialize,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # facade
    "run",
    "RunResult",
    "registry",
    # workflow
    "Job",
    "Workflow",
    "CostModel",
    "TabularCostModel",
    "HeterogeneousCostModel",
    "UniformCostModel",
    "upward_ranks",
    "critical_path",
    "parallelism_profile",
    # resources
    "Resource",
    "ResourcePool",
    "ResourceChangeModel",
    "StaticResourceModel",
    # scheduling
    "Assignment",
    "Schedule",
    "ExecutionState",
    "JobStatus",
    "HEFTScheduler",
    "heft_schedule",
    "AHEFTScheduler",
    "aheft_reschedule",
    "MinMinScheduler",
    "validate_schedule",
    # core
    "Predictor",
    "PerformanceHistoryRepository",
    "AdaptiveReschedulingLoop",
    "WhatIfAnalyzer",
    # simulation
    "StaticScheduleExecutor",
    "JustInTimeExecutor",
    "ExecutionTrace",
    "render_gantt",
    # generators
    "WorkflowCase",
    "RandomDAGParameters",
    "generate_random_case",
    "generate_blast_case",
    "generate_wien2k_case",
    "generate_montage_case",
    "sample_dag_case",
    "sample_dag_pool",
    # experiments
    "ExperimentCase",
    "CaseResult",
    "run_case",
    "sweep_random_parameter",
    "sweep_application_parameter",
    "improvement_rate",
    "render_improvement_table",
    "render_series",
    # scenarios
    "Scenario",
    "ScenarioRun",
    "PerformanceProfile",
    "ScaledCostModel",
    "available_scenarios",
    "compose",
    "make_scenario",
    "materialize",
]
