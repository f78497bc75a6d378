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
so a value never depends on which other jobs or edges exist.
:func:`build_cases` prices any number of cases with one vectorised
:func:`~repro.utils.rng.first_outputs` pass over every case's draws (bit
for bit the draw a per-stream ``spawn_rng(seed, *path).uniform(low, high)``
would make) and writes each DAG's edge volumes with one
:meth:`Workflow.set_data_many` call; :func:`build_case`,
:func:`draw_base_costs` and :func:`assign_edge_data` are its one-case
calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.utils.checks import require_finite
from repro.utils.rng import first_outputs, uniform_draws
from repro.workflow.costs import CostModel, HeterogeneousCostModel
from repro.workflow.dag import Workflow

__all__ = [
    "WorkflowCase",
    "CaseRequest",
    "draw_base_costs",
    "assign_edge_data",
    "build_case",
    "build_cases",
]


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


@dataclass(frozen=True, eq=False)
class CaseRequest:
    """One DAG to price and its :func:`build_case` settings."""

    workflow: Workflow
    ccr: float
    beta: float
    omega_dag: float = 50.0
    seed: int = 0
    bandwidth: float = 1.0
    latency: float = 0.0
    per_operation: bool = False
    params: Optional[Mapping[str, object]] = None


@dataclass
class _Step:
    """One pricing step of one case: its ``U[0, high]`` draws under
    ``seed``, named by ``groups`` (``(prefix, last_tokens)`` pairs, ``size``
    paths in all), and ``land``, which turns the draws into the step's
    result."""

    seed: int
    groups: list
    size: int
    high: float
    land: Callable[[np.ndarray], object]


def _run(steps: Sequence[_Step]) -> List[object]:
    """Take every step's draws in one kernel pass; each step's result."""
    unit = first_outputs(
        (step.seed, prefix, last) for step in steps for prefix, last in step.groups
    )
    results = []
    start = 0
    for step in steps:
        draws = uniform_draws(unit[start:start + step.size], 0.0, step.high)
        start += step.size
        results.append(step.land(draws))
    return results


def _base_cost_step(
    workflow: Workflow,
    *,
    omega_dag: float,
    seed: int,
    per_operation: bool,
    minimum: float = 1.0,
) -> _Step:
    """The :func:`draw_base_costs` step; it lands as ``{job: ω_i}``."""
    require_finite("omega_dag", omega_dag)
    if omega_dag <= 0:
        raise ValueError("omega_dag must be positive")
    jobs = workflow.jobs
    high = 2.0 * omega_dag
    if per_operation:
        operations = workflow.operations()

        def land(draws: np.ndarray) -> Dict[str, float]:
            per_op = dict(zip(operations, np.maximum(draws, minimum).tolist()))
            return {job: per_op[workflow.job(job).operation] for job in jobs}

        return _Step(seed, [(("op-cost",), operations)], len(operations), high, land)

    def land(draws: np.ndarray) -> Dict[str, float]:
        return dict(zip(jobs, np.maximum(draws, minimum).tolist()))

    return _Step(seed, [(("job-cost",), jobs)], len(jobs), high, land)


def _edge_data_step(
    workflow: Workflow,
    *,
    ccr: float,
    omega_dag: float,
    seed: int,
    bandwidth: float,
    per_operation: bool,
) -> _Step:
    """The :func:`assign_edge_data` step; it lands by writing the volumes."""
    for name, value in (("ccr", ccr), ("omega_dag", omega_dag), ("bandwidth", bandwidth)):
        require_finite(name, value)
    if ccr < 0:
        raise ValueError("ccr must be non-negative")
    high = 2.0 * (ccr * omega_dag * bandwidth)
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
        size = len(distinct)

        def volumes(draws: np.ndarray) -> List[float]:
            pair_data = dict(zip(distinct, draws.tolist()))
            return [pair_data[pair] for pair in pairs]

    else:
        groups = [(("edge-data", src), successors) for src, successors in sources]
        size = sum(len(successors) for _, successors in sources)

        def volumes(draws: np.ndarray) -> List[float]:
            return draws.tolist()

    def land(draws: np.ndarray) -> None:
        edges = ((src, dst) for src, successors in sources for dst in successors)
        workflow.set_data_many(
            (src, dst, data) for (src, dst), data in zip(edges, volumes(draws))
        )

    return _Step(seed, groups, size, high, land)


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
    step = _base_cost_step(
        workflow, omega_dag=omega_dag, seed=seed, per_operation=per_operation, minimum=minimum
    )
    return _run([step])[0]


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
    _run(
        [
            _edge_data_step(
                workflow,
                ccr=ccr,
                omega_dag=omega_dag,
                seed=seed,
                bandwidth=bandwidth,
                per_operation=per_operation,
            )
        ]
    )


def build_cases(requests: Sequence[CaseRequest]) -> List[WorkflowCase]:
    """Price many DAGs: draw base costs, calibrate data to each CCR.

    Every request's base-cost and edge-volume draws are taken in one kernel
    pass; each case equals what :func:`build_case` makes of its request
    alone.  Returns one :class:`WorkflowCase` per request, bundling the
    workflow, its :class:`~repro.workflow.costs.HeterogeneousCostModel` and
    the generator parameters.
    """
    steps = []
    for request in requests:
        steps.append(
            _base_cost_step(
                request.workflow,
                omega_dag=request.omega_dag,
                seed=request.seed,
                per_operation=request.per_operation,
            )
        )
        steps.append(
            _edge_data_step(
                request.workflow,
                ccr=request.ccr,
                omega_dag=request.omega_dag,
                seed=request.seed,
                bandwidth=request.bandwidth,
                per_operation=request.per_operation,
            )
        )
    landed = _run(steps)
    cases = []
    for request, base in zip(requests, landed[0::2]):
        workflow = request.workflow
        costs = HeterogeneousCostModel(
            workflow,
            base,
            beta=request.beta,
            bandwidth=request.bandwidth,
            latency=request.latency,
            seed=request.seed,
        )
        case_params: Dict[str, object] = {
            "v": workflow.num_jobs,
            "ccr": request.ccr,
            "beta": request.beta,
            "omega_dag": request.omega_dag,
            "seed": request.seed,
        }
        if request.params:
            case_params.update(request.params)
        cases.append(WorkflowCase(workflow=workflow, costs=costs, params=case_params))
    return cases


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

    The one-case call of :func:`build_cases`.
    """
    request = CaseRequest(
        workflow,
        ccr=ccr,
        beta=beta,
        omega_dag=omega_dag,
        seed=seed,
        bandwidth=bandwidth,
        latency=latency,
        per_operation=per_operation,
        params=params,
    )
    return build_cases([request])[0]
