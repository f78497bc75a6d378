"""Structural and cost-aware analyses of workflow DAGs.

Provides the graph quantities the schedulers and the evaluation sections of
the paper rely on:

* **upward rank** ``rank_u`` (Eq. 5/6) — the priority HEFT and AHEFT use,
* **downward rank** ``rank_d`` — the symmetric quantity (used by some HEFT
  variants and exposed for completeness),
* **critical path** and its length (lower bound on the makespan used by the
  SLR metric),
* **levels** and **parallelism profile** — the paper attributes AHEFT's
  gains to the DAG's degree of parallelism (§4.3), so these are first-class
  metrics here.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.workflow.costs import CostModel
from repro.workflow.dag import Workflow

__all__ = [
    "upward_ranks",
    "downward_ranks",
    "critical_path",
    "critical_path_length",
    "dag_levels",
    "parallelism_profile",
    "max_parallelism",
    "average_parallelism",
]

#: upward-rank level partition per ``WorkflowIndex`` snapshot.  The
#: partition depends only on the DAG's structure, so it survives new cost
#: models (uncertain mode builds a fresh effective model on every trigger)
#: and edge-data refreshes, and goes away with the snapshot it was built
#: from when a job or edge is added.
_LEVEL_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def upward_ranks(
    workflow: Workflow,
    costs: CostModel,
    resources: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Upward rank of every job (paper Eq. 5 and 6).

    ``rank_u(n_i) = w̄_i + max_{n_j in succ(n_i)} ( c̄_{i,j} + rank_u(n_j) )``
    with ``rank_u(n_exit) = w̄_exit``.  Averages are taken over ``resources``
    when provided (the pool the scheduler currently knows about).
    """
    if workflow is not costs.workflow:
        # foreign workflow: the dense views below are aligned with
        # costs.workflow, so fall back to direct per-job queries
        ranks: Dict[str, float] = {}
        for job in reversed(workflow.topological_order()):
            w_avg = costs.average_computation_cost(job, resources)
            best = 0.0
            for nxt in workflow.successors(job):
                candidate = costs.average_communication_cost(job, nxt) + ranks[nxt]
                if candidate > best:
                    best = candidate
            ranks[job] = w_avg + best
        return ranks

    structure = workflow.structure()
    if structure.num_jobs == 0:
        return {}
    w_arr = costs.average_computation_costs(resources)
    comm_arr = costs.edge_communication_costs()
    # Level-synchronous evaluation of the reverse-topological recurrence:
    # jobs at reverse level L (0 = no successors) depend only on ranks at
    # levels below L, so one gather + segmented max per level replaces the
    # per-edge Python loop.  Float max is exact and the per-edge addition
    # is the same float64 operation the scalar recurrence performs, so the
    # ranks are bit-identical to the scalar evaluation.  The level
    # partition and gather indices are structural (independent of costs
    # and resources) and cached on the structure snapshot, so every
    # replan of one DAG reuses them whatever cost model it ranks under.
    batches = _LEVEL_CACHE.get(structure)
    if batches is None:
        batches = _LEVEL_CACHE[structure] = _reverse_level_batches(structure)
    leaf_idx, levels = batches
    rank = np.empty(structure.num_jobs, dtype=np.float64)
    rank[leaf_idx] = w_arr[leaf_idx]
    for job_idx, edge_idx, tgt_idx, seg_offsets in levels:
        candidates = comm_arr[edge_idx] + rank[tgt_idx]
        best = np.maximum.reduceat(candidates, seg_offsets)
        np.maximum(best, 0.0, out=best)
        rank[job_idx] = w_arr[job_idx] + best
    return dict(zip(structure.jobs, rank.tolist()))


def _reverse_level_batches(structure) -> Tuple[np.ndarray, List[tuple]]:
    """Group jobs by reverse topological level, with flat gather indices.

    Returns ``(leaf_idx, levels)``: the indices of jobs without successors
    (reverse level 0) and, per deeper level, ``(job_idx, edge_idx, tgt_idx,
    seg_offsets)`` — the level's jobs, the positions of their out-edges in
    the flat edge-cost array (grouped by source job in job order), the
    successor index of each such edge, and the start offset of every job's
    edge run for ``np.maximum.reduceat``.
    """
    succ = structure.succ
    num_jobs = structure.num_jobs
    offsets = [0] * num_jobs
    cursor = 0
    for i in range(num_jobs):
        offsets[i] = cursor
        cursor += len(succ[i])
    rlevel = [0] * num_jobs
    depth = 0
    for i in reversed(structure.topo):
        s = succ[i]
        if s:
            level = 1 + max(rlevel[j] for j in s)
            rlevel[i] = level
            if level > depth:
                depth = level
    by_level: List[List[int]] = [[] for _ in range(depth + 1)]
    for i in range(num_jobs):
        by_level[rlevel[i]].append(i)
    leaf_idx = np.asarray(by_level[0], dtype=np.intp)
    levels = []
    for members in by_level[1:]:
        edge_idx: List[int] = []
        tgt_idx: List[int] = []
        seg_offsets: List[int] = []
        for i in members:
            seg_offsets.append(len(edge_idx))
            base = offsets[i]
            for k, j in enumerate(succ[i]):
                edge_idx.append(base + k)
                tgt_idx.append(j)
        levels.append(
            (
                np.asarray(members, dtype=np.intp),
                np.asarray(edge_idx, dtype=np.intp),
                np.asarray(tgt_idx, dtype=np.intp),
                np.asarray(seg_offsets, dtype=np.intp),
            )
        )
    return leaf_idx, levels


def downward_ranks(
    workflow: Workflow,
    costs: CostModel,
    resources: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Downward rank of every job.

    ``rank_d(n_i) = max_{n_j in pred(n_i)} ( rank_d(n_j) + w̄_j + c̄_{j,i} )``
    with ``rank_d(entry) = 0``.
    """
    ranks: Dict[str, float] = {}
    for job in workflow.topological_order():
        preds = workflow.predecessors(job)
        if not preds:
            ranks[job] = 0.0
            continue
        best = 0.0
        for prev in preds:
            w_avg = costs.average_computation_cost(prev, resources)
            c_avg = costs.average_communication_cost(prev, job)
            candidate = ranks[prev] + w_avg + c_avg
            if candidate > best:
                best = candidate
        ranks[job] = best
    return ranks


def critical_path(
    workflow: Workflow,
    costs: CostModel,
    resources: Optional[Sequence[str]] = None,
    *,
    include_communication: bool = True,
) -> List[str]:
    """Jobs on the (average-cost) critical path, entry to exit.

    The critical path is the chain of jobs maximising the sum of average
    computation costs plus (optionally) average communication costs.
    """
    order = workflow.topological_order()
    dist: Dict[str, float] = {}
    parent: Dict[str, Optional[str]] = {}
    for job in order:
        w = costs.average_computation_cost(job, resources)
        preds = workflow.predecessors(job)
        if not preds:
            dist[job] = w
            parent[job] = None
            continue
        best_val = -np.inf
        best_pred = None
        for prev in preds:
            c = (
                costs.average_communication_cost(prev, job)
                if include_communication
                else 0.0
            )
            candidate = dist[prev] + c + w
            if candidate > best_val or (
                candidate == best_val and str(prev) < str(best_pred)
            ):
                best_val = candidate
                best_pred = prev
        dist[job] = best_val
        parent[job] = best_pred

    # walk back from the exit job with the largest distance
    exits = workflow.exit_jobs()
    end = max(sorted(exits, key=str), key=lambda j: dist[j])
    path: List[str] = []
    cursor: Optional[str] = end
    while cursor is not None:
        path.append(cursor)
        cursor = parent[cursor]
    path.reverse()
    return path


def critical_path_length(
    workflow: Workflow,
    costs: CostModel,
    resources: Optional[Sequence[str]] = None,
    *,
    include_communication: bool = True,
    minimum_costs: bool = False,
) -> float:
    """Length of the critical path.

    With ``minimum_costs=True`` the per-job cost used is the *minimum* over
    ``resources`` rather than the average — this is the denominator of the
    Schedule Length Ratio (SLR) metric.
    """

    def job_cost(job: str) -> float:
        if minimum_costs and resources:
            return min(costs.computation_cost(job, r) for r in resources)
        return costs.average_computation_cost(job, resources)

    order = workflow.topological_order()
    dist: Dict[str, float] = {}
    for job in order:
        w = job_cost(job)
        preds = workflow.predecessors(job)
        if not preds:
            dist[job] = w
            continue
        best = 0.0
        for prev in preds:
            c = (
                costs.average_communication_cost(prev, job)
                if include_communication
                else 0.0
            )
            best = max(best, dist[prev] + c)
        dist[job] = best + w
    return max(dist[j] for j in workflow.exit_jobs())


def dag_levels(workflow: Workflow) -> Dict[str, int]:
    """Topological level of each job (entry jobs are level 0)."""
    levels: Dict[str, int] = {}
    for job in workflow.topological_order():
        preds = workflow.predecessors(job)
        levels[job] = 0 if not preds else 1 + max(levels[p] for p in preds)
    return levels


def parallelism_profile(workflow: Workflow) -> List[int]:
    """Number of jobs per topological level, ordered by level.

    This is the "parallelism degree" notion the paper uses to explain why
    BLAST benefits more from AHEFT than WIEN2K (§4.3): WIEN2K's
    ``LAPW2_FERMI`` level has width 1 and throttles the whole DAG.
    """
    levels = dag_levels(workflow)
    if not levels:
        return []
    width = [0] * (max(levels.values()) + 1)
    for level in levels.values():
        width[level] += 1
    return width


def max_parallelism(workflow: Workflow) -> int:
    """Maximum number of jobs on one level (DAG width)."""
    profile = parallelism_profile(workflow)
    return max(profile) if profile else 0


def average_parallelism(workflow: Workflow) -> float:
    """Average number of jobs per level."""
    profile = parallelism_profile(workflow)
    return float(np.mean(profile)) if profile else 0.0
