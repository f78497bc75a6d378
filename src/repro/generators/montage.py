"""Montage workflow generator.

Montage (astronomical image mosaicking) is named by the paper (§4.3)
alongside BLAST and WIEN2K as a well-balanced, highly parallel scientific
workflow built from a small set of unique executables (11 in the real
system).  It is included as an extension workload for the harness; the
shape follows the standard Montage structure:

::

    { mProject_i }  (N parallel re-projections)
        → { mDiffFit_j }  (overlap fits, ~N parallel)
            → mConcatFit → mBgModel
                → { mBackground_i }  (N parallel corrections)
                    → mImgtbl → mAdd → mShrink → mJPEG
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.generators.costs import WorkflowCase, build_case
from repro.workflow.dag import Workflow

__all__ = ["generate_montage_workflow", "generate_montage_case"]


def generate_montage_workflow(parallelism: int, *, name: Optional[str] = None) -> Workflow:
    """Build a Montage-shaped DAG with ``parallelism`` input images."""
    if parallelism < 2:
        raise ValueError("parallelism must be at least 2")
    workflow = Workflow(name or f"montage-{parallelism}")
    # edges in construction order, added in one batch at the end
    edges: List[Tuple[str, str, float]] = []

    projects = []
    for i in range(1, parallelism + 1):
        job_id = f"mproject_{i}"
        workflow.add_job(job_id, operation="mProject", image=i)
        projects.append(job_id)

    # overlap fits: neighbouring projections pairwise (ring of N overlaps)
    difffits = []
    for i in range(1, parallelism + 1):
        job_id = f"mdifffit_{i}"
        workflow.add_job(job_id, operation="mDiffFit", overlap=i)
        difffits.append(job_id)
        left = projects[i - 1]
        right = projects[i % parallelism]
        edges.append((left, job_id, 0.0))
        if right != left:
            edges.append((right, job_id, 0.0))

    workflow.add_job("mconcatfit", operation="mConcatFit")
    for job_id in difffits:
        edges.append((job_id, "mconcatfit", 0.0))

    workflow.add_job("mbgmodel", operation="mBgModel")
    edges.append(("mconcatfit", "mbgmodel", 0.0))

    backgrounds = []
    for i in range(1, parallelism + 1):
        job_id = f"mbackground_{i}"
        workflow.add_job(job_id, operation="mBackground", image=i)
        backgrounds.append(job_id)
        edges.append(("mbgmodel", job_id, 0.0))
        edges.append((projects[i - 1], job_id, 0.0))

    tail = ["mimgtbl", "madd", "mshrink", "mjpeg"]
    operations = ["mImgtbl", "mAdd", "mShrink", "mJPEG"]
    for job_id, op in zip(tail, operations):
        workflow.add_job(job_id, operation=op)
    for job_id in backgrounds:
        edges.append((job_id, tail[0], 0.0))
    for first, second in zip(tail, tail[1:]):
        edges.append((first, second, 0.0))

    workflow.add_edges(edges)
    workflow.validate()
    return workflow


def generate_montage_case(
    parallelism: int,
    *,
    ccr: float = 1.0,
    beta: float = 0.5,
    omega_dag: float = 50.0,
    seed: int = 0,
    name: Optional[str] = None,
) -> WorkflowCase:
    """Generate a priced Montage case (per-operation base costs)."""
    workflow = generate_montage_workflow(parallelism, name=name)
    return build_case(
        workflow,
        ccr=ccr,
        beta=beta,
        omega_dag=omega_dag,
        seed=seed,
        per_operation=True,
        params={"generator": "montage", "parallelism": parallelism},
    )
