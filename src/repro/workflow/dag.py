"""Directed acyclic graph model of a grid workflow application.

The model follows the paper's formulation (§3.4): a workflow is ``G=(V,E)``
where ``V`` is a set of jobs and each edge ``(i, j)`` is a precedence
constraint annotated with the amount of data job ``j`` requires from job
``i`` (the ``data`` matrix of the paper).  Costs are *not* stored on the
graph — they live in a :class:`~repro.workflow.costs.CostModel` so the same
structure can be priced on different or changing resource pools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.utils.checks import require_finite
from repro.utils.ordering import topological_order

__all__ = ["Job", "Workflow", "WorkflowIndex"]


@dataclass(frozen=True, eq=False)
class WorkflowIndex:
    """Dense-integer structure index of a :class:`Workflow` snapshot.

    Scheduling inner loops are dominated by string-keyed dict lookups when
    they walk the DAG per job per resource.  The index maps every job to a
    dense integer id (insertion order, matching ``Workflow.jobs``) and
    exposes the topological order and predecessor/successor adjacency as
    plain integer lists, so the hot loops become array walks.

    The index is a snapshot: it is built lazily by
    :meth:`Workflow.structure` and cached until the workflow's *structure*
    (jobs or edges, not edge data) mutates.  Snapshots compare and hash by
    identity, so views derived purely from the structure (the upward-rank
    level partition) can be cached weakly per snapshot.
    """

    #: job ids in insertion order; ``jobs[i]`` is the job with dense id ``i``
    jobs: Tuple[str, ...]
    #: job id -> dense id
    index: Mapping[str, int]
    #: dense ids in deterministic topological order
    topo: Tuple[int, ...]
    #: job ids in the same topological order (= ``Workflow.topological_order()``)
    topo_jobs: Tuple[str, ...]
    #: successors per dense id
    succ: Tuple[Tuple[int, ...], ...]
    #: predecessors per dense id
    pred: Tuple[Tuple[int, ...], ...]

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class Job:
    """A single job (node) of a workflow DAG.

    Parameters
    ----------
    job_id:
        Unique identifier inside its workflow.
    operation:
        Name of the executable/operation the job runs.  Scientific workflows
        are built from a handful of unique operations instantiated many
        times (paper §4.3); keeping the operation name allows per-operation
        cost assignment and performance-history grouping.
    payload:
        Free-form metadata (e.g. the parallel-branch index for BLAST).
    """

    job_id: str
    operation: str = "task"
    payload: Mapping[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.job_id


def _edge_data(src: str, dst: str, data: float) -> float:
    """``data`` as an edge's volume: a finite, non-negative float."""
    data = float(data)
    if not 0.0 <= data < math.inf:
        require_finite(f"data of edge {src!r} -> {dst!r}", data)
        raise ValueError("edge data must be non-negative")
    return data


class Workflow:
    """A workflow application represented as a weighted DAG.

    The class stores jobs, directed data-dependency edges and the amount of
    data transferred along each edge.  It maintains predecessor/successor
    indices and validates acyclicity on demand.

    Examples
    --------
    >>> wf = Workflow("diamond")
    >>> for name in ["a", "b", "c", "d"]:
    ...     _ = wf.add_job(name)
    >>> wf.add_edge("a", "b", data=2.0)
    >>> wf.add_edge("a", "c", data=3.0)
    >>> wf.add_edge("b", "d", data=1.0)
    >>> wf.add_edge("c", "d", data=1.0)
    >>> wf.entry_jobs(), wf.exit_jobs()
    (['a'], ['d'])
    """

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._jobs: Dict[str, Job] = {}
        self._succ: Dict[str, Dict[str, float]] = {}
        self._pred: Dict[str, Dict[str, float]] = {}
        #: bumped on every mutation (jobs, edges *and* edge data) — cost
        #: caches key on this
        self._version: int = 0
        #: bumped only when jobs/edges change — the structure index keys on
        #: this (edge-data updates do not invalidate topology)
        self._structure_version: int = 0
        self._structure_cache: Optional[WorkflowIndex] = None
        self._structure_cache_version: int = -1
        #: recent mutations as ``(version_after, src, dst)`` — ``src``/``dst``
        #: name the edge whose data changed, or are ``None`` for a
        #: structural mutation.  Lets incremental consumers (the rank
        #: cache) scope their invalidation to the jobs actually touched
        #: between two versions instead of recomputing everything.
        self._mutation_log: List[Tuple[int, Optional[str], Optional[str]]] = []
        #: highest version whose mutation entry has been trimmed from the
        #: log; ranges reaching at/below it are no longer reconstructible
        self._mutation_log_floor: int = 0

    #: retained mutation-log entries after a trim (trim triggers at 2x)
    _MUTATION_LOG_LIMIT = 4096

    @property
    def version(self) -> int:
        """Monotone mutation counter (jobs, edges and edge-data changes).

        Cost and rank caches use ``(workflow.version, ...)`` keys so they
        are invalidated automatically whenever the workflow mutates.
        """
        return self._version

    @property
    def structure_version(self) -> int:
        """Monotone counter of *structural* mutations (jobs and edges only).

        Unlike :attr:`version`, updating an edge's data volume does not
        bump this — caches of purely structural or computation-priced
        views key on it to survive edge-data refreshes.
        """
        return self._structure_version

    def data_edges_changed_between(
        self, old_version: int, new_version: int
    ) -> Optional[List[Tuple[str, str]]]:
        """Edges whose data changed in ``(old_version, new_version]``.

        Returns ``None`` when the change set cannot be reconstructed —
        a structural mutation occurred in the range, or the log no longer
        covers it — in which case the caller must fall back to full
        recomputation.  Edges may repeat if set multiple times.
        """
        if old_version > new_version or old_version < self._mutation_log_floor:
            return None
        changed: List[Tuple[str, str]] = []
        for version, src, dst in self._mutation_log:
            if version <= old_version or version > new_version:
                continue
            if src is None:
                return None  # structural mutation in range
            changed.append((src, dst))
        return changed

    def _log_mutation(self, src: Optional[str], dst: Optional[str]) -> None:
        log = self._mutation_log
        log.append((self._version, src, dst))
        if len(log) > 2 * self._MUTATION_LOG_LIMIT:
            self._mutation_log_floor = log[-self._MUTATION_LOG_LIMIT - 1][0]
            del log[: -self._MUTATION_LOG_LIMIT]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_job(self, job: Job | str, operation: str = "task", **payload) -> Job:
        """Add a job and return it.

        ``job`` may be a :class:`Job` or a bare identifier string.  Adding a
        job whose identifier already exists raises ``ValueError``.
        """
        if isinstance(job, str):
            job = Job(job_id=job, operation=operation, payload=dict(payload))
        if job.job_id in self._jobs:
            raise ValueError(f"duplicate job id: {job.job_id!r}")
        self._jobs[job.job_id] = job
        self._succ.setdefault(job.job_id, {})
        self._pred.setdefault(job.job_id, {})
        self._touch_structure()
        return job

    def add_edge(self, src: str, dst: str, data: float = 0.0) -> None:
        """Add a precedence edge ``src -> dst`` carrying ``data`` units.

        Raises
        ------
        KeyError
            If either endpoint has not been added.
        ValueError
            If the edge is a self loop, a duplicate, or its data is
            negative or not finite.
        """
        if src not in self._jobs:
            raise KeyError(f"unknown source job: {src!r}")
        if dst not in self._jobs:
            raise KeyError(f"unknown destination job: {dst!r}")
        if src == dst:
            raise ValueError(f"self loop on job {src!r} is not allowed")
        if dst in self._succ[src]:
            raise ValueError(f"duplicate edge {src!r} -> {dst!r}")
        data = _edge_data(src, dst, data)
        self._succ[src][dst] = data
        self._pred[dst][src] = data
        self._touch_structure()

    def remove_edge(self, src: str, dst: str) -> None:
        """Remove the edge ``src -> dst`` (KeyError if absent)."""
        del self._succ[src][dst]
        del self._pred[dst][src]
        self._touch_structure()

    def set_data(self, src: str, dst: str, data: float) -> None:
        """Update the data volume of an existing edge."""
        if dst not in self._succ.get(src, {}):
            raise KeyError(f"no edge {src!r} -> {dst!r}")
        data = _edge_data(src, dst, data)
        self._succ[src][dst] = data
        self._pred[dst][src] = data
        self._version += 1  # costs change, topology does not
        self._log_mutation(src, dst)

    # ------------------------------------------------------------------
    # cache bookkeeping
    # ------------------------------------------------------------------
    def _touch_structure(self) -> None:
        self._version += 1
        self._structure_version += 1
        self._log_mutation(None, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> List[str]:
        """Job identifiers in insertion order."""
        return list(self._jobs.keys())

    @property
    def num_jobs(self) -> int:
        return len(self._jobs)

    @property
    def num_edges(self) -> int:
        return sum(len(succ) for succ in self._succ.values())

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._jobs)

    def job(self, job_id: str) -> Job:
        """Return the :class:`Job` object for ``job_id``."""
        return self._jobs[job_id]

    def predecessors(self, job_id: str) -> List[str]:
        """Immediate predecessors of ``job_id`` (``pred(n_i)`` in the paper)."""
        return list(self._pred[job_id].keys())

    def successors(self, job_id: str) -> List[str]:
        """Immediate successors of ``job_id`` (``succ(n_i)`` in the paper)."""
        return list(self._succ[job_id].keys())

    def data(self, src: str, dst: str) -> float:
        """Amount of data transferred along ``src -> dst`` (``data[i][k]``)."""
        try:
            return self._succ[src][dst]
        except KeyError as exc:
            raise KeyError(f"no edge {src!r} -> {dst!r}") from exc

    def edges(self) -> List[Tuple[str, str, float]]:
        """All edges as ``(src, dst, data)`` triples in insertion order."""
        out: List[Tuple[str, str, float]] = []
        for src, succ in self._succ.items():
            for dst, data in succ.items():
                out.append((src, dst, data))
        return out

    def entry_jobs(self) -> List[str]:
        """Jobs with no predecessors."""
        return [job for job in self._jobs if not self._pred[job]]

    def exit_jobs(self) -> List[str]:
        """Jobs with no successors (``n_exit`` — there can be several)."""
        return [job for job in self._jobs if not self._succ[job]]

    def topological_order(self) -> List[str]:
        """A deterministic topological order of the jobs.

        Raises ``ValueError`` if the graph has a cycle.
        """
        return list(self.structure().topo_jobs)

    def structure(self) -> WorkflowIndex:
        """The cached :class:`WorkflowIndex` of the current structure.

        Rebuilt lazily after any job/edge mutation; edge-data updates keep
        the cache.  Raises ``ValueError`` if the graph has a cycle.
        """
        if (
            self._structure_cache is None
            or self._structure_cache_version != self._structure_version
        ):
            jobs = tuple(self._jobs.keys())
            index = {job: i for i, job in enumerate(jobs)}
            topo_jobs = tuple(topological_order(list(jobs), self._succ))
            self._structure_cache = WorkflowIndex(
                jobs=jobs,
                index=index,
                topo=tuple(index[job] for job in topo_jobs),
                topo_jobs=topo_jobs,
                succ=tuple(
                    tuple(index[dst] for dst in self._succ[job]) for job in jobs
                ),
                pred=tuple(
                    tuple(index[src] for src in self._pred[job]) for job in jobs
                ),
            )
            self._structure_cache_version = self._structure_version
        return self._structure_cache

    def is_acyclic(self) -> bool:
        """``True`` if the graph is a DAG."""
        try:
            self.topological_order()
            return True
        except ValueError:
            return False

    def validate(self) -> None:
        """Validate structural invariants.

        Checks acyclicity and that every job is connected to the DAG's
        purpose (jobs may legitimately be isolated only if the DAG has a
        single job).

        Raises
        ------
        ValueError
            If the workflow is empty or contains a cycle.
        """
        if not self._jobs:
            raise ValueError("workflow has no jobs")
        self.topological_order()  # raises on cycles

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def ancestors(self, job_id: str) -> Set[str]:
        """All transitive predecessors of ``job_id``."""
        seen: Set[str] = set()
        stack = list(self._pred[job_id])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._pred[node])
        return seen

    def descendants(self, job_id: str) -> Set[str]:
        """All transitive successors of ``job_id``."""
        seen: Set[str] = set()
        stack = list(self._succ[job_id])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succ[node])
        return seen

    def subgraph(self, job_ids: Iterable[str], name: Optional[str] = None) -> "Workflow":
        """Induced sub-workflow on ``job_ids`` (edges inside the set only)."""
        keep = set(job_ids)
        missing = keep - set(self._jobs)
        if missing:
            raise KeyError(f"unknown jobs: {sorted(missing)!r}")
        sub = Workflow(name or f"{self.name}[sub]")
        for job_id in self._jobs:
            if job_id in keep:
                sub.add_job(self._jobs[job_id])
        for src, dst, data in self.edges():
            if src in keep and dst in keep:
                sub.add_edge(src, dst, data)
        return sub

    def operations(self) -> List[str]:
        """Distinct operation names used by this workflow, sorted."""
        return sorted({job.operation for job in self._jobs.values()})

    def out_degree(self, job_id: str) -> int:
        return len(self._succ[job_id])

    def in_degree(self, job_id: str) -> int:
        return len(self._pred[job_id])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workflow(name={self.name!r}, jobs={self.num_jobs}, "
            f"edges={self.num_edges})"
        )
