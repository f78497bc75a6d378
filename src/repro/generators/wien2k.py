"""WIEN2K workflow generator (paper Fig. 7).

WIEN2k is a quantum-chemistry application whose workflow contains two
parallel sections, ``LAPW1`` and ``LAPW2``, each with N parallel k-point
tasks.  Crucially, the single job ``LAPW2_FERMI`` sits between the two
sections: no ``LAPW2`` task can start before it finishes, which throttles
the DAG's effective parallelism — the reason the paper finds WIEN2K gains
much less from adaptive rescheduling than BLAST (§4.3).

The full-balanced DAG used in the paper (equal parallelism in both
sections) is::

    StageIn → LAPW0 → { LAPW1_K1 … LAPW1_KN } → LAPW2_FERMI
            → { LAPW2_K1 … LAPW2_KN } → SumPara → LCore → Mixer
            → Converged → StageOut

giving ``2·N + 8`` jobs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.generators.costs import WorkflowCase, build_case
from repro.workflow.dag import Workflow

__all__ = ["generate_wien2k_workflow", "generate_wien2k_case"]

#: The tail of sequential jobs after the second parallel section.
_TAIL_OPS = ["SumPara", "LCore", "Mixer", "Converged", "StageOut"]


def generate_wien2k_workflow(parallelism: int, *, name: Optional[str] = None) -> Workflow:
    """Build the full-balanced WIEN2K DAG with ``parallelism`` k-points."""
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    workflow = Workflow(name or f"wien2k-{parallelism}")
    # edges in construction order, added in one batch at the end
    edges: List[Tuple[str, str, float]] = []
    workflow.add_job("stagein", operation="StageIn")
    workflow.add_job("lapw0", operation="LAPW0")
    edges.append(("stagein", "lapw0", 0.0))

    workflow.add_job("lapw2_fermi", operation="LAPW2_FERMI")
    for k in range(1, parallelism + 1):
        lapw1 = f"lapw1_k{k}"
        workflow.add_job(lapw1, operation="LAPW1", k=k)
        edges.append(("lapw0", lapw1, 0.0))
        edges.append((lapw1, "lapw2_fermi", 0.0))

    tail_ids = []
    for op in _TAIL_OPS:
        job_id = op.lower()
        workflow.add_job(job_id, operation=op)
        tail_ids.append(job_id)

    for k in range(1, parallelism + 1):
        lapw2 = f"lapw2_k{k}"
        workflow.add_job(lapw2, operation="LAPW2", k=k)
        edges.append(("lapw2_fermi", lapw2, 0.0))
        edges.append((lapw2, tail_ids[0], 0.0))

    for first, second in zip(tail_ids, tail_ids[1:]):
        edges.append((first, second, 0.0))

    workflow.add_edges(edges)
    workflow.validate()
    return workflow


def generate_wien2k_case(
    parallelism: int,
    *,
    ccr: float = 1.0,
    beta: float = 0.5,
    omega_dag: float = 50.0,
    seed: int = 0,
    name: Optional[str] = None,
) -> WorkflowCase:
    """Generate a priced WIEN2K case (per-operation base costs)."""
    workflow = generate_wien2k_workflow(parallelism, name=name)
    return build_case(
        workflow,
        ccr=ccr,
        beta=beta,
        omega_dag=omega_dag,
        seed=seed,
        per_operation=True,
        params={"generator": "wien2k", "parallelism": parallelism},
    )
