"""Cost assignment shared by every workflow generator.

The paper's heterogeneous computation model (§4.2, following Topcuoglu et
al.):

* the DAG has an average computation cost ``ω_DAG``;
* each job's average cost ``ω_i`` is drawn from ``U[0, 2·ω_DAG]``;
* the cost of job *i* on resource *j* is drawn from
  ``U[ω_i(1-β/2), ω_i(1+β/2)]`` — handled by
  :class:`~repro.workflow.costs.HeterogeneousCostModel`;
* edge data volumes are drawn so the workflow's average communication cost
  equals ``CCR · ω_DAG`` (data-intensive workflows have a high CCR).

Scientific applications are built from a handful of unique operations
(§4.3), so generators may request *per-operation* base costs: every job of
one operation shares the same ``ω``.

Every draw is the first uniform of its own token-path stream —
``("job-cost", job)``, ``("op-cost", operation)``, ``("edge-data", src,
dst)`` or ``("op-data", producer_op, consumer_op)`` under the case seed —
so a value never depends on which other jobs or edges exist.  Each pricing
step takes all its draws in one vectorised
:func:`~repro.utils.rng.spawn_uniforms` pass (bit for bit the draw a
per-stream ``spawn_rng(seed, *path).uniform(low, high)`` would make) and
writes the edge volumes with one :meth:`Workflow.set_data_many` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.utils.checks import require_finite
from repro.utils.rng import spawn_uniforms
from repro.workflow.costs import CostModel, HeterogeneousCostModel
from repro.workflow.dag import Workflow

__all__ = ["WorkflowCase", "draw_base_costs", "assign_edge_data", "build_case"]


@dataclass
class WorkflowCase:
    """A generated experiment case: a DAG plus its cost model.

    ``params`` records the generator parameters so experiment reports can
    group cases by (ν, CCR, β, …).
    """

    workflow: Workflow
    costs: CostModel
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def num_jobs(self) -> int:
        return self.workflow.num_jobs

    def describe(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.workflow.name}({rendered})"


def draw_base_costs(
    workflow: Workflow,
    *,
    omega_dag: float,
    seed: int,
    per_operation: bool = False,
    minimum: float = 1.0,
) -> Dict[str, float]:
    """Draw ``ω_i`` for every job from ``U[0, 2·ω_DAG]``.

    A small floor (``minimum``) keeps zero-cost jobs out of the generated
    cases — a zero-duration job makes ranks degenerate and never occurs in
    real workloads.  With ``per_operation=True`` all jobs sharing an
    operation name share one draw.
    """
    require_finite("omega_dag", omega_dag)
    if omega_dag <= 0:
        raise ValueError("omega_dag must be positive")
    jobs = workflow.jobs
    high = 2.0 * omega_dag
    if per_operation:
        operations = workflow.operations()
        draws = spawn_uniforms(seed, [(("op-cost",), operations)], 0.0, high)
        per_op = dict(zip(operations, np.maximum(draws, minimum).tolist()))
        return {job: per_op[workflow.job(job).operation] for job in jobs}
    draws = spawn_uniforms(seed, [(("job-cost",), jobs)], 0.0, high)
    return dict(zip(jobs, np.maximum(draws, minimum).tolist()))


def assign_edge_data(
    workflow: Workflow,
    *,
    ccr: float,
    omega_dag: float,
    seed: int,
    bandwidth: float = 1.0,
    per_operation: bool = False,
) -> None:
    """Set edge data volumes so the average communication cost is ``CCR·ω_DAG``.

    Individual volumes are drawn from ``U[0, 2·CCR·ω_DAG·bandwidth]`` (mean
    ``CCR·ω_DAG·bandwidth``), or shared per (producer-operation,
    consumer-operation) pair when ``per_operation`` is set.
    """
    for name, value in (("ccr", ccr), ("omega_dag", omega_dag), ("bandwidth", bandwidth)):
        require_finite(name, value)
    if ccr < 0:
        raise ValueError("ccr must be non-negative")
    mean_data = ccr * omega_dag * bandwidth
    high = 2.0 * mean_data
    # the edges source by source, in Workflow.edges() order
    sources = [
        (src, successors)
        for src in workflow.jobs
        if (successors := workflow.successors(src))
    ]
    if per_operation:
        # one draw per distinct (producer-op, consumer-op) pair
        operation = {job: workflow.job(job).operation for job in workflow.jobs}
        pairs = [
            (operation[src], operation[dst]) for src, successors in sources for dst in successors
        ]
        distinct = list(dict.fromkeys(pairs))
        groups = [(("op-data", src_op), (dst_op,)) for src_op, dst_op in distinct]
        pair_data = dict(zip(distinct, spawn_uniforms(seed, groups, 0.0, high).tolist()))
        volumes = [pair_data[pair] for pair in pairs]
    else:
        groups = [(("edge-data", src), successors) for src, successors in sources]
        volumes = spawn_uniforms(seed, groups, 0.0, high).tolist()
    edges = ((src, dst) for src, successors in sources for dst in successors)
    workflow.set_data_many((src, dst, data) for (src, dst), data in zip(edges, volumes))


def build_case(
    workflow: Workflow,
    *,
    ccr: float,
    beta: float,
    omega_dag: float = 50.0,
    seed: int = 0,
    bandwidth: float = 1.0,
    latency: float = 0.0,
    per_operation: bool = False,
    params: Optional[Mapping[str, object]] = None,
) -> WorkflowCase:
    """Price a generated DAG: draw base costs, calibrate data to the CCR.

    Returns a :class:`WorkflowCase` bundling the workflow, its
    :class:`~repro.workflow.costs.HeterogeneousCostModel` and the generator
    parameters.
    """
    base = draw_base_costs(
        workflow, omega_dag=omega_dag, seed=seed, per_operation=per_operation
    )
    assign_edge_data(
        workflow,
        ccr=ccr,
        omega_dag=omega_dag,
        seed=seed,
        bandwidth=bandwidth,
        per_operation=per_operation,
    )
    costs = HeterogeneousCostModel(
        workflow,
        base,
        beta=beta,
        bandwidth=bandwidth,
        latency=latency,
        seed=seed,
    )
    case_params: Dict[str, object] = {
        "v": workflow.num_jobs,
        "ccr": ccr,
        "beta": beta,
        "omega_dag": omega_dag,
        "seed": seed,
    }
    if params:
        case_params.update(params)
    return WorkflowCase(workflow=workflow, costs=costs, params=case_params)
