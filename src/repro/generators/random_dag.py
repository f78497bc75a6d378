"""Parametric random DAG generator (paper §4.2, following Topcuoglu et al.).

The generator is driven by the four structural parameters the paper lists:

* ``v`` — number of jobs,
* ``out_degree`` — maximum out-edges of a node, expressed as a fraction of
  the total number of nodes,
* ``ccr`` — communication-to-computation ratio,
* ``beta`` — resource heterogeneity factor,

plus a shape factor ``alpha`` (as in the original HEFT test-bench): the DAG
has roughly ``sqrt(v)/alpha`` levels of roughly ``sqrt(v)*alpha`` jobs each,
so ``alpha > 1`` yields short/wide (highly parallel) DAGs and ``alpha < 1``
tall/narrow ones.

Every non-entry job receives at least one predecessor from an earlier level
and every non-exit job at least one successor, so the generated graph is a
connected DAG exercising both fan-out and join structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.generators.costs import WorkflowCase, build_case
from repro.utils.checks import require_finite
from repro.utils.rng import spawn_rng
from repro.workflow.dag import Workflow

__all__ = [
    "RandomDAGParameters",
    "generate_random_dag",
    "generate_random_case",
    "case_seed_path",
    "random_case_pricing",
]


@dataclass(frozen=True)
class RandomDAGParameters:
    """Parameter bundle for one random DAG type (one cell of Table 2)."""

    v: int = 40
    out_degree: float = 0.2
    ccr: float = 1.0
    beta: float = 0.5
    alpha: float = 1.0
    omega_dag: float = 50.0

    def __post_init__(self) -> None:
        if self.v < 2:
            raise ValueError("v must be at least 2")
        for name in ("out_degree", "ccr", "beta", "alpha", "omega_dag"):
            require_finite(name, getattr(self, name))
        if not 0 < self.out_degree <= 1:
            raise ValueError("out_degree must be in (0, 1]")
        if self.ccr < 0:
            raise ValueError("ccr must be non-negative")
        if not 0 <= self.beta <= 2:
            raise ValueError("beta must be in [0, 2]")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.omega_dag <= 0:
            raise ValueError("omega_dag must be positive")


def _level_sizes(v: int, alpha: float, rng: np.random.Generator) -> List[int]:
    """Split ``v`` jobs into levels of mean width ``sqrt(v)*alpha``."""
    mean_width = max(1.0, math.sqrt(v) * alpha)
    sizes: List[int] = []
    remaining = v
    while remaining > 0:
        width = int(rng.integers(1, int(2 * mean_width) + 1))
        width = max(1, min(width, remaining))
        sizes.append(width)
        remaining -= width
    if len(sizes) == 1 and v > 1:
        # make sure there is at least one precedence level
        first = max(1, sizes[0] // 2)
        sizes = [first, sizes[0] - first]
    return sizes


def generate_random_dag(
    params: RandomDAGParameters,
    *,
    seed: int = 0,
    name: Optional[str] = None,
) -> Workflow:
    """Generate the DAG structure (no costs) for one random case."""
    rng = spawn_rng(seed, "random-dag", params.v, params.out_degree, params.alpha)
    workflow = Workflow(name or f"random-v{params.v}")
    sizes = _level_sizes(params.v, params.alpha, rng)

    levels: List[List[str]] = []
    counter = 0
    for level_index, size in enumerate(sizes):
        level_jobs = []
        for _ in range(size):
            counter += 1
            job_id = f"n{counter}"
            workflow.add_job(job_id, operation=f"op{level_index % 7}")
            level_jobs.append(job_id)
        levels.append(level_jobs)

    max_out = max(1, int(round(params.out_degree * params.v)))
    out_count: Dict[str, int] = {job: 0 for job in workflow.jobs}
    # successors per job and every edge in the order it is drawn, added in
    # one batch at the end (the order fixes each job's predecessor order)
    successors: Dict[str, Set[str]] = {job: set() for job in workflow.jobs}
    edges: List[Tuple[str, str, float]] = []

    def connect(src: str, dst: str) -> None:
        successors[src].add(dst)
        edges.append((src, dst, 0.0))
        out_count[src] += 1

    # every non-entry job gets at least one predecessor from the previous level
    for level_index in range(1, len(levels)):
        previous = levels[level_index - 1]
        # previous-level jobs still under budget, in level order, kept up to
        # date as picks use up budgets
        candidates = [p for p in previous if out_count[p] < max_out]
        for job in levels[level_index]:
            pick_from = candidates or previous
            pred = pick_from[int(rng.integers(0, len(pick_from)))]
            connect(pred, job)
            if candidates and out_count[pred] == max_out:
                candidates.remove(pred)

    # extra forward edges up to the out-degree budget; the jobs of every
    # later level are the tail of the level-ordered job list
    ordered = [job for level_jobs in levels for job in level_jobs]
    later_start = 0
    for level_jobs in levels[:-1]:
        later_start += len(level_jobs)
        num_later = len(ordered) - later_start
        for job in level_jobs:
            budget = max_out - out_count[job]
            if budget <= 0 or not num_later:
                continue
            extra = int(rng.integers(0, budget + 1))
            if extra == 0:
                continue
            targets = rng.choice(num_later, size=min(extra, num_later), replace=False)
            for target_index in np.atleast_1d(targets):
                target = ordered[later_start + int(target_index)]
                if target not in successors[job]:
                    connect(job, target)

    # every non-exit job needs at least one successor
    last_level = set(levels[-1])
    for level_index, level_jobs in enumerate(levels[:-1]):
        next_level = levels[level_index + 1]
        for job in level_jobs:
            if job in last_level or successors[job]:
                continue
            connect(job, next_level[int(rng.integers(0, len(next_level)))])

    workflow.add_edges(edges)
    workflow.validate()
    return workflow


def case_seed_path(params: RandomDAGParameters, instance: int) -> Tuple[object, ...]:
    """Token path of the stream whose first ``integers(0, 2**62)`` seeds
    instance ``instance`` of the DAG type ``params``."""
    return ("case", params.v, params.out_degree, params.ccr, params.beta, instance)


def random_case_pricing(
    params: RandomDAGParameters, *, case_seed: int, instance: int
) -> Dict[str, object]:
    """The :func:`~repro.generators.costs.build_case` keywords of the random
    case built from ``case_seed``."""
    return {
        "ccr": params.ccr,
        "beta": params.beta,
        "omega_dag": params.omega_dag,
        "seed": case_seed,
        "params": {
            "generator": "random",
            "out_degree": params.out_degree,
            "alpha": params.alpha,
            "instance": instance,
        },
    }


def generate_random_case(
    params: RandomDAGParameters,
    *,
    seed: int = 0,
    instance: int = 0,
    name: Optional[str] = None,
) -> WorkflowCase:
    """Generate one priced random case (DAG + cost model).

    ``instance`` distinguishes the repeated instances of one DAG *type*
    (the paper generates 10 instances per parameter combination).
    """
    case_seed = int(spawn_rng(seed, *case_seed_path(params, instance)).integers(0, 2**62))
    workflow = generate_random_dag(params, seed=case_seed, name=name)
    return build_case(
        workflow, **random_case_pricing(params, case_seed=case_seed, instance=instance)
    )
