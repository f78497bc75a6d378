"""BLAST workflow generator (paper Fig. 6).

The six-step BLAST workflow from GNARE splits an input genome file into N
blocks, processes every block through two sequential comparative-analysis
steps, and merges the per-block results:

::

    FileBreaker (split)
      ├── block_1:  Blast ──► Parse ──┐
      ├── block_2:  Blast ──► Parse ──┤
      │        ...                    ├──► Assembler (merge)
      └── block_N:  Blast ──► Parse ──┘

With two-way parallelism this is the six-job workflow of the paper's
Fig. 6; the evaluation scales the parallelism N to 200…1000 (Table 5).  The
shape is wide and well balanced, which is why BLAST benefits most from
adaptive rescheduling (§4.3).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.generators.costs import WorkflowCase, build_case
from repro.workflow.dag import Workflow

__all__ = ["generate_blast_workflow", "generate_blast_case"]

#: Operation names of the four unique BLAST executables.
SPLIT_OP = "FileBreaker"
BLAST_OP = "Blast"
PARSE_OP = "Parse"
MERGE_OP = "Assembler"


def generate_blast_workflow(parallelism: int, *, name: Optional[str] = None) -> Workflow:
    """Build the BLAST DAG with ``parallelism`` independent block branches.

    The workflow has ``2·parallelism + 2`` jobs: one splitter, a
    Blast + Parse pair per block and one final assembler.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    workflow = Workflow(name or f"blast-{parallelism}")
    # edges in construction order, added in one batch at the end
    edges: List[Tuple[str, str, float]] = []
    workflow.add_job("split", operation=SPLIT_OP)
    workflow.add_job("merge", operation=MERGE_OP)
    for branch in range(1, parallelism + 1):
        blast = f"blast_{branch}"
        parse = f"parse_{branch}"
        workflow.add_job(blast, operation=BLAST_OP, branch=branch)
        workflow.add_job(parse, operation=PARSE_OP, branch=branch)
        edges.append(("split", blast, 0.0))
        edges.append((blast, parse, 0.0))
        edges.append((parse, "merge", 0.0))
    workflow.add_edges(edges)
    workflow.validate()
    return workflow


def generate_blast_case(
    parallelism: int,
    *,
    ccr: float = 1.0,
    beta: float = 0.5,
    omega_dag: float = 50.0,
    seed: int = 0,
    name: Optional[str] = None,
) -> WorkflowCase:
    """Generate a priced BLAST case.

    Base computation costs are drawn *per operation* — all Blast jobs share
    one average cost, all Parse jobs another — reflecting that a scientific
    workflow reuses a handful of executables over many data blocks (§4.3).
    """
    workflow = generate_blast_workflow(parallelism, name=name)
    return build_case(
        workflow,
        ccr=ccr,
        beta=beta,
        omega_dag=omega_dag,
        seed=seed,
        per_operation=True,
        params={"generator": "blast", "parallelism": parallelism},
    )
