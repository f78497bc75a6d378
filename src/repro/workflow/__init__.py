"""Workflow (DAG) model: jobs, data dependencies and cost models.

A grid workflow application is represented as a directed acyclic graph
``G = (V, E)`` where nodes are jobs and edges carry the amount of data the
successor needs from the predecessor (paper §3.4).  Computation and
communication costs are provided by a :class:`~repro.workflow.costs.CostModel`
so that the same DAG structure can be priced against a changing,
heterogeneous resource pool.
"""

from repro.workflow.dag import Job, Workflow
from repro.workflow.costs import (
    CostModel,
    TabularCostModel,
    HeterogeneousCostModel,
    UniformCostModel,
    ErrorModel,
    GaussianErrorModel,
    LognormalErrorModel,
    UniformErrorModel,
    ResourceBiasErrorModel,
    StragglerErrorModel,
    PerturbedCostModel,
    ERROR_MODELS,
)
from repro.workflow.analysis import (
    upward_ranks,
    downward_ranks,
    critical_path,
    critical_path_length,
    dag_levels,
    parallelism_profile,
    max_parallelism,
    average_parallelism,
)
from repro.workflow.serialization import (
    workflow_to_dict,
    workflow_from_dict,
    workflow_to_json,
    workflow_from_json,
    workflow_to_dot,
    workflow_to_networkx,
)

__all__ = [
    "Job",
    "Workflow",
    "CostModel",
    "TabularCostModel",
    "HeterogeneousCostModel",
    "UniformCostModel",
    "ErrorModel",
    "GaussianErrorModel",
    "LognormalErrorModel",
    "UniformErrorModel",
    "ResourceBiasErrorModel",
    "StragglerErrorModel",
    "PerturbedCostModel",
    "ERROR_MODELS",
    "upward_ranks",
    "downward_ranks",
    "critical_path",
    "critical_path_length",
    "dag_levels",
    "parallelism_profile",
    "max_parallelism",
    "average_parallelism",
    "workflow_to_dict",
    "workflow_from_dict",
    "workflow_to_json",
    "workflow_from_json",
    "workflow_to_dot",
    "workflow_to_networkx",
]
