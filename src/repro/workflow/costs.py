"""Cost models: pricing a workflow DAG on a heterogeneous resource pool.

The paper separates workflow *structure* from *costs*: the ``data`` matrix
lives on the DAG edges while the computation-cost matrix ``w[i][j]`` and the
communication costs ``c[i][j]`` are produced by the Predictor from
performance history and resource information (paper §3.2, §3.4).  A
:class:`CostModel` plays the Predictor's pricing role:

* ``computation_cost(job, resource)`` — the estimated execution time of a
  job on a resource (``w_{i,j}``),
* ``communication_cost(src, dst, r_src, r_dst)`` — the estimated transfer
  time of the ``src -> dst`` output when the two jobs run on ``r_src`` and
  ``r_dst`` (``c_{i,j}``; zero when both run on the same resource),
* the corresponding *averages* used by HEFT's upward rank.

Two concrete models are provided:

* :class:`TabularCostModel` — explicit per-(job, resource) tables, used for
  the paper's worked example (Fig. 4) and for unit tests;
* :class:`HeterogeneousCostModel` — the paper's parametric model
  (§4.2): ``w_i`` drawn from ``U[0, 2·w_DAG]`` per job and
  ``w_{i,j} ~ U[w_i(1-β/2), w_i(1+β/2)]`` per (job, resource), with
  communication priced as ``latency + data / bandwidth``.  Costs for
  resources that join *after* workflow submission are drawn lazily from the
  same distribution, seeded by the resource identity, so the model remains
  deterministic under pool growth.  Every ``w_{i,j}`` is drawn in batched
  kernel passes, bit-identical to the per-pair stream
  ``spawn_rng(seed, "wij", job, resource).uniform(...)``: a run prices the
  columns of every workflow it will plan ahead, in one
  :func:`price_columns` pass at grid open, and a
  :meth:`CostModel.computation_matrix` call prices whatever columns are
  still missing in one pass of its own.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.checks import require_finite
from repro.utils.rng import spawn_rng, stream_draws, uniform_blocks
from repro.workflow.dag import Workflow

__all__ = [
    "CostModel",
    "DelegatingCostModel",
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
    "draw_factors",
    "price_columns",
    "prime_truth_factors",
]

#: Kinds of memoised view keyed by a pool signature (``(kind, pool)``).
#: The Planner replans whenever the pool changes, so keeping every past
#: signature's view would grow the model with each resource event; each
#: kind instead holds only the pool it was last built for.
POOL_KEYED_VIEWS = frozenset({"wmat", "wrows", "worder", "wavg", "priority"})

#: Largest pool whose order rows fit one byte per resource index.
_BYTE_ORDER_POOL = 256


def _remember(entries: Dict, key: Tuple, builder):
    """``entries[key]``, built by ``builder()`` on a miss.

    A pool-keyed kind is stored under the kind itself as ``(key, view)``,
    so building it for a new pool replaces the previous pool's view.
    """
    kind = key[0]
    if kind not in POOL_KEYED_VIEWS:
        if key not in entries:
            entries[key] = builder()
        return entries[key]
    held = entries.get(kind)
    if held is None or held[0] != key:
        held = entries[kind] = (key, builder())
    return held[1]


def _held_prices(model: "CostModel") -> Tuple[List[Tuple], int]:
    """Keys of the pool-keyed views ``model`` holds, and its single-draw pairs.

    At most one key per kind of :data:`POOL_KEYED_VIEWS`; the pair count
    is that of :class:`HeterogeneousCostModel`'s per-pair cache (0 for the
    other models).  Introspection for the memory tests and the kernel
    benchmark.
    """
    held = []
    for name in ("_structural_cache", "_dense_cache"):
        store = model.__dict__.get(name)
        if store is not None:
            entries = store["entries"]
            held.extend(entries[kind][0] for kind in sorted(POOL_KEYED_VIEWS.intersection(entries)))
    return held, len(model.__dict__.get("_cache", ()))


def ascending_order(matrix) -> List:
    """Each row's column indices, stably sorted by the row's values.

    The rows of a matrix with at most 256 columns are ``bytes`` objects
    (iterating one yields its indices as ints), a few dozen bytes per job
    instead of a list of int objects; wider matrices get lists.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    order = np.argsort(matrix, axis=1, kind="stable")
    width = matrix.shape[1]
    if not 0 < width <= _BYTE_ORDER_POOL:
        return order.tolist()
    flat = order.astype(np.uint8).tobytes()
    return [flat[k : k + width] for k in range(0, len(flat), width)]


class CostModel(abc.ABC):
    """Interface for estimating computation and communication costs.

    Besides the abstract per-(job, resource) queries, the base class
    provides *memoized dense views* used by the scheduling fast paths:

    * :meth:`computation_matrix` — ``w[job_idx, resource_idx]`` as a numpy
      array aligned with ``workflow.structure()`` and the given resource
      order,
    * :meth:`average_computation_costs` — the per-job average vector
      ``w̄_i``,
    * :meth:`computation_order` — per job, the pool indices in ascending
      ``w`` order,
    * :meth:`edge_communication_costs` — ``c̄`` per edge, grouped by source
      job in successor order.

    Memoization is keyed on ``(workflow.version, cache_token(), ...)`` and
    holds each pool-keyed view for the current pool only (see
    :data:`POOL_KEYED_VIEWS`); the per-resource priced columns behind them
    persist.  It is only enabled when :meth:`cache_token` returns a
    non-``None`` value — models whose answers can drift without the
    workflow mutating (e.g. a history-blended predictor model) keep the
    default ``None`` token and are simply recomputed on every call, which
    is always correct.
    """

    #: workflow whose edges supply the data volumes
    workflow: Workflow

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def computation_cost(self, job_id: str, resource_id: str) -> float:
        """Estimated execution time ``w_{i,j}`` of ``job_id`` on ``resource_id``."""

    def average_computation_cost(
        self, job_id: str, resources: Optional[Sequence[str]] = None
    ) -> float:
        """Average ``w_i`` of the job.

        When ``resources`` is given, the average is taken over that set
        (what HEFT does when ranking against the currently known pool);
        otherwise the model's intrinsic average is returned.  An explicitly
        *empty* resource set is an error — silently falling back to the
        intrinsic average would hide scheduler bugs where the pool was lost.
        """
        if resources is None:
            return self.intrinsic_average_computation_cost(job_id)
        if len(resources) == 0:
            raise ValueError(
                "cannot average computation cost over an empty resource set; "
                "pass None for the model's intrinsic average"
            )
        return float(np.mean([self.computation_cost(job_id, r) for r in resources]))

    @abc.abstractmethod
    def intrinsic_average_computation_cost(self, job_id: str) -> float:
        """Model-defined average computation cost of the job."""

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def communication_cost(
        self, src: str, dst: str, src_resource: str, dst_resource: str
    ) -> float:
        """Estimated transfer time of the ``src -> dst`` output.

        Must be zero when ``src_resource == dst_resource`` (local data).
        """

    @abc.abstractmethod
    def average_communication_cost(self, src: str, dst: str) -> float:
        """Average transfer time of ``src -> dst`` ignoring placement.

        This is the ``\\bar{c}_{i,j}`` used in the upward rank (Eq. 5).
        """

    # ------------------------------------------------------------------
    # capability flags / cache keys
    # ------------------------------------------------------------------
    def cache_token(self) -> Optional[object]:
        """Token identifying the model's current pricing, or ``None``.

        A non-``None`` token enables memoization of the dense cost views:
        two calls with equal ``(workflow.version, cache_token())`` must
        return identical costs.  The built-in table-backed models return
        their pricing version (bumped by :meth:`invalidate_cache`); models
        whose estimates can change behind the scenes (a live feed of
        observations) must keep the default ``None`` so every query hits the
        live model.
        """
        return None

    def invalidate_cache(self) -> None:
        """Drop every memoized dense view and bump the pricing version.

        Models whose cost tables are mutated *in place* (e.g. editing
        ``HeterogeneousCostModel.base_costs`` or a tabular row) must call
        this afterwards — the workflow version cannot see such changes, so
        without it the memoized matrices and priority orders would keep
        serving the old prices.
        """
        self.__dict__.pop("_dense_cache", None)
        self.__dict__.pop("_structural_cache", None)
        self.__dict__["_pricing_version"] = self._pricing_version + 1

    @property
    def _pricing_version(self) -> int:
        return self.__dict__.get("_pricing_version", 0)

    @property
    def has_uniform_communication(self) -> bool:
        """True when transfer cost does not depend on the resource pair.

        The contract is: ``communication_cost(src, dst, r1, r2)`` equals 0
        when ``r1 == r2`` and equals ``average_communication_cost(src,
        dst)`` for every pair of *distinct* resources.  All built-in models
        satisfy this (the paper prices transfers as ``latency + data /
        bandwidth`` regardless of endpoints); schedulers use it to hoist
        communication lookups out of their per-resource loops.  Custom
        models with genuinely pairwise costs keep the default ``False`` and
        take the generic (slower, still exact) path.
        """
        return False

    # ------------------------------------------------------------------
    # memoized dense views
    # ------------------------------------------------------------------
    def memoize(self, key: Tuple, builder):
        """Memoize ``builder()`` under ``key`` when the model is cacheable.

        The cache lives on the instance and is dropped wholesale whenever
        the workflow's version or the pricing version moves on, so stale
        entries never accumulate across mutations.  A key whose kind
        (``key[0]``) is in :data:`POOL_KEYED_VIEWS` holds one pool at a
        time (see :func:`_remember`).  Public so that consumers of the model
        (e.g. the schedulers' priority-order cache) can piggyback on the
        same invalidation rules instead of inventing their own.
        """
        token = self.cache_token()
        if token is None:
            return builder()
        store = self.__dict__.get("_dense_cache")
        stamp = (self.workflow.version, token)
        if store is None or store.get("stamp") != stamp:
            store = {"stamp": stamp, "entries": {}}
            self.__dict__["_dense_cache"] = store
        return _remember(store["entries"], key, builder)

    def memoize_structural(self, key: Tuple, builder):
        """Memoize ``builder()`` keyed on *structure* rather than version.

        For views built only from the DAG's jobs/edges and job-level
        pricing — dense computation matrices, their row lists and averages
        — an edge-data refresh (``Workflow.set_data``) changes nothing, so
        stamping on ``(structure_version, cache_token())`` lets them
        survive it.  Like :meth:`memoize`, a pool-keyed kind holds only the
        pool it was last built for.  Never use this for anything priced
        from edge data (communication views), which must stay on
        :meth:`memoize`.
        """
        store = self._structural_store()
        if store is None:
            return builder()
        return _remember(store["entries"], key, builder)

    def _structural_store(self) -> Optional[Dict[str, object]]:
        """The live store behind :meth:`memoize_structural`, or ``None``
        when the model is not cacheable.

        Besides the memoised ``entries`` it holds the model's one copy of
        each priced column (``columns``: resource id -> ``w[:, j]``) and
        ``index``, the dense job ids of the structure the store is stamped
        with, which those columns are aligned with.
        """
        token = self.cache_token()
        if token is None:
            return None
        store = self.__dict__.get("_structural_cache")
        stamp = (self.workflow.structure_version, token)
        if store is None or store["stamp"] != stamp:
            store = {
                "stamp": stamp,
                "index": self.workflow.structure().index,
                "columns": {},
                "entries": {},
            }
            self.__dict__["_structural_cache"] = store
        return store

    def computation_matrix(self, resources: Sequence[str]) -> "np.ndarray":
        """Dense ``w[job_idx, resource_idx]`` matrix for the given pool.

        Rows follow ``workflow.structure().jobs`` (insertion order), columns
        follow ``resources`` order.  The matrix of the current pool is
        memoized (one pool at a time) and stacked from
        :meth:`computation_columns`, the per-resource columns that persist
        across pools — under the adaptive loop the pool signature changes
        on every join/leave event, but most resources persist across
        events, so only the genuinely new resources are priced instead of
        the whole ``jobs × pool`` table per event.  Entries are the exact
        same ``computation_cost`` floats either way.
        """
        return self.memoize_structural(
            ("wmat", tuple(resources)), lambda: self.computation_columns(resources)
        )

    def computation_columns(self, resource_ids: Sequence[str]) -> "np.ndarray":
        """``w[:, j]`` for every resource of ``resource_ids``, as a new array.

        Read from the model's one store of priced per-resource columns.
        In a run those columns are priced ahead at grid open
        (:func:`price_columns`, called by
        :meth:`~repro.simulation.shared_grid.SharedGridExecutor.run`) for
        every resource the run's workflows can plan on; the ids the store
        still lacks are priced together in one :meth:`_price_columns` call
        and kept there (for this call only when the model is not
        cacheable).  Unlike :meth:`computation_matrix`, nothing keyed by
        ``resource_ids`` itself is kept, so wrappers can price a subset of
        their pool from it.
        """
        jobs = self.workflow.structure().jobs
        matrix = np.empty((len(jobs), len(resource_ids)), dtype=np.float64)
        if not resource_ids:
            return matrix
        store = self._structural_store()
        # not cacheable: the columns live for this call only
        columns = {} if store is None else store["columns"]
        missing = [rid for rid in dict.fromkeys(resource_ids) if rid not in columns]
        if missing:
            # contiguous per-resource rows: the scalar queries index them
            columns.update(zip(missing, np.ascontiguousarray(self._price_columns(missing).T)))
        for j, rid in enumerate(resource_ids):
            matrix[:, j] = columns[rid]
        return matrix

    def computation_rows(self, resources: Sequence[str]) -> List[List[float]]:
        """:meth:`computation_matrix` as a list of per-job rows, memoized.

        The placement loops index single ``w`` rows millions of times and
        plain lists beat ndarray scalar indexing there; caching the
        ``tolist`` view of the current pool spares every replan on that
        pool the O(jobs × pool) conversion, and a new pool replaces it.
        Callers must not mutate the returned rows.
        """
        return self.memoize_structural(
            ("wrows", tuple(resources)),
            lambda: self.computation_matrix(resources).tolist(),
        )

    def computation_order(self, resources: Sequence[str]) -> List:
        """Per-job pool indices in ascending ``w`` order, memoized.

        Row ``i`` lists every index of ``resources`` sorted by ``w[i][j]``,
        ties in pool order (:func:`ascending_order` of
        :meth:`computation_matrix`): the visiting order of the placement
        kernel's best-first min-EFT scan.  Like :meth:`computation_rows`
        the current pool's view is held alone, and a new pool replaces it.
        Callers must not mutate the returned rows.
        """
        return self.memoize_structural(
            ("worder", tuple(resources)),
            lambda: ascending_order(self.computation_matrix(resources)),
        )

    def _price_columns(self, resource_ids: Sequence[str]) -> "np.ndarray":
        """Price ``w[:, j]`` for every resource of ``resource_ids``, unmemoized.

        Returns a ``jobs × len(resource_ids)`` array of
        :meth:`computation_cost` values.  Models that can price many pairs
        at once more cheaply than one by one override this.
        """
        jobs = self.workflow.structure().jobs
        columns = [[self.computation_cost(job, rid) for job in jobs] for rid in resource_ids]
        return np.array(columns, dtype=np.float64).reshape(len(resource_ids), len(jobs)).T

    def average_computation_costs(
        self, resources: Optional[Sequence[str]] = None
    ) -> "np.ndarray":
        """Vector of ``w̄_i`` per job, aligned with ``structure().jobs``.

        Bit-identical to calling :meth:`average_computation_cost` per job
        (numpy's row mean equals the mean of the per-resource list).
        """
        key = ("wavg", None if resources is None else tuple(resources))

        def build() -> "np.ndarray":
            jobs = self.workflow.structure().jobs
            if resources is None:
                return np.array(
                    [self.intrinsic_average_computation_cost(job) for job in jobs],
                    dtype=np.float64,
                )
            if len(resources) == 0:
                raise ValueError(
                    "cannot average computation cost over an empty resource set; "
                    "pass None for the model's intrinsic average"
                )
            return self.computation_matrix(resources).mean(axis=1)

        return self.memoize_structural(key, build)

    def edge_communication_costs(self) -> "np.ndarray":
        """``c̄`` per edge, in ``Workflow.edges()`` order.

        Edges are grouped contiguously by source job in dense-id order,
        with destinations in successor order: the walk of
        ``structure().succ`` in job order.
        """

        def build() -> "np.ndarray":
            structure = self.workflow.structure()
            jobs = structure.jobs
            return np.array(
                [
                    self.average_communication_cost(src, jobs[dst])
                    for src, succ in zip(jobs, structure.succ)
                    for dst in succ
                ],
                dtype=np.float64,
            )

        return self.memoize(("cavg",), build)

    def predecessor_communications(
        self,
    ) -> Tuple[Tuple[Tuple[int, float], ...], ...]:
        """Per-job ``(pred_dense_id, c̄)`` pairs, aligned with dense job ids.

        This is the view the schedulers' placement loops need: for every job,
        its predecessors and the average cost of shipping their output, with
        all string lookups resolved once.
        """

        def build() -> Tuple[Tuple[Tuple[int, float], ...], ...]:
            structure = self.workflow.structure()
            jobs = structure.jobs
            return tuple(
                tuple(
                    (p, self.average_communication_cost(jobs[p], jobs[i]))
                    for p in structure.pred[i]
                )
                for i in range(structure.num_jobs)
            )

        return self.memoize(("pred_comm",), build)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def ccr(self, resources: Optional[Sequence[str]] = None) -> float:
        """Communication-to-computation ratio of the priced workflow.

        Defined as the ratio of the average communication cost per edge to
        the average computation cost per job (paper §4.2).  Returns 0 for
        workflows without edges.
        """
        comp = self.average_computation_costs(resources)
        mean_comp = float(np.mean(comp)) if comp.size else 0.0
        if self.workflow.num_edges == 0 or mean_comp == 0.0:
            return 0.0
        return float(np.mean(self.edge_communication_costs())) / mean_comp


class DelegatingCostModel(CostModel):
    """A view of ``base`` that transforms computation costs only.

    Communication, the intrinsic (resource-free) averages and the
    communication capability pass through to ``base`` unchanged, and the
    two communication views are ``base``'s own memoised copies: they never
    depend on the computation transform.  Subclasses price
    ``computation_cost`` and say, through :meth:`cache_token`, whether
    their pricing may be memoised.
    """

    def __init__(self, base: CostModel) -> None:
        self.base = base
        self.workflow = base.workflow

    @property
    def has_uniform_communication(self) -> bool:
        return self.base.has_uniform_communication

    def intrinsic_average_computation_cost(self, job_id: str) -> float:
        return self.base.intrinsic_average_computation_cost(job_id)

    def communication_cost(
        self, src: str, dst: str, src_resource: str, dst_resource: str
    ) -> float:
        return self.base.communication_cost(src, dst, src_resource, dst_resource)

    def average_communication_cost(self, src: str, dst: str) -> float:
        return self.base.average_communication_cost(src, dst)

    def edge_communication_costs(self) -> "np.ndarray":
        return self.base.edge_communication_costs()

    def predecessor_communications(self) -> Tuple[Tuple[Tuple[int, float], ...], ...]:
        return self.base.predecessor_communications()


class TabularCostModel(CostModel):
    """Cost model backed by explicit tables.

    Parameters
    ----------
    workflow:
        The workflow whose edges carry the communication costs.  Edge data
        values are interpreted directly as transfer times between distinct
        resources (bandwidth 1), matching the paper's Fig. 4 where edge
        weights are communication costs.
    computation:
        Mapping ``job_id -> {resource_id -> cost}``.
    strict:
        If ``True`` (default) asking for a resource missing from a job's row
        raises ``KeyError``; if ``False`` the row average is returned, which
        is convenient when new resources join and should behave "average".
    """

    def __init__(
        self,
        workflow: Workflow,
        computation: Mapping[str, Mapping[str, float]],
        *,
        strict: bool = True,
    ) -> None:
        self.workflow = workflow
        self._comp: Dict[str, Dict[str, float]] = {
            job: dict(row) for job, row in computation.items()
        }
        self.strict = strict
        missing = set(workflow.jobs) - set(self._comp)
        if missing:
            raise ValueError(f"computation table missing jobs: {sorted(missing)}")
        for job, row in self._comp.items():
            if not row:
                raise ValueError(f"empty computation row for job {job!r}")
            for resource, cost in row.items():
                require_finite(f"computation cost of ({job!r}, {resource!r})", cost)
                if cost < 0:
                    raise ValueError(
                        f"negative computation cost for ({job!r}, {resource!r})"
                    )

    def resources(self) -> list[str]:
        """All resource ids appearing in the table, sorted."""
        ids = set()
        for row in self._comp.values():
            ids.update(row.keys())
        return sorted(ids)

    def cache_token(self) -> Optional[object]:
        # the table is a plain dict: in-place edits require invalidate_cache()
        return self._pricing_version

    @property
    def has_uniform_communication(self) -> bool:
        return True  # edge data is the transfer time for any distinct pair

    def computation_cost(self, job_id: str, resource_id: str) -> float:
        row = self._comp[job_id]
        if resource_id in row:
            return float(row[resource_id])
        if self.strict:
            raise KeyError(
                f"no tabulated cost for job {job_id!r} on resource {resource_id!r}"
            )
        return float(np.mean(list(row.values())))

    def intrinsic_average_computation_cost(self, job_id: str) -> float:
        return float(np.mean(list(self._comp[job_id].values())))

    def communication_cost(
        self, src: str, dst: str, src_resource: str, dst_resource: str
    ) -> float:
        if src_resource == dst_resource:
            return 0.0
        return float(self.workflow.data(src, dst))

    def average_communication_cost(self, src: str, dst: str) -> float:
        return float(self.workflow.data(src, dst))


class HeterogeneousCostModel(CostModel):
    """The paper's parametric heterogeneous cost model (§4.2).

    Parameters
    ----------
    workflow:
        Workflow whose edges carry *data volumes*.
    base_costs:
        ``w_i`` per job (the job's average computation cost).  Usually drawn
        from ``U[0, 2·w_DAG]`` by the generator.
    beta:
        Resource heterogeneity factor.  ``w_{i,j}`` is drawn uniformly from
        ``[w_i·(1-β/2), w_i·(1+β/2)]``; β=0 means homogeneous resources.
    bandwidth:
        Data units transferred per time unit between distinct resources.
    latency:
        Fixed per-transfer start-up cost.
    seed:
        Root seed for the per-(job, resource) draws.  Two model instances
        with the same seed produce identical cost matrices, regardless of
        query order and of when resources join the pool.

    Costs are drawn in batched kernel passes, bit-identical to the
    per-pair stream.  A run prices the columns of every resource the
    workflow can plan on ahead, at grid open, in the one
    :func:`price_columns` pass that prices all of the run's workflows; a
    :meth:`computation_matrix` build prices whatever columns are still
    missing (a resource the run could not know of) in one pass of its own.
    Either way the columns go to the model's column store, which is the
    one copy of those prices: :meth:`computation_cost` reads a pair from
    its column when the resource has one, and otherwise draws it from
    ``spawn_rng(seed, "wij", job, resource)`` into the per-pair cache.
    """

    def __init__(
        self,
        workflow: Workflow,
        base_costs: Mapping[str, float],
        *,
        beta: float = 0.5,
        bandwidth: float = 1.0,
        latency: float = 0.0,
        seed: int = 0,
    ) -> None:
        for name, value in (("beta", beta), ("bandwidth", bandwidth), ("latency", latency)):
            require_finite(name, value)
        if beta < 0 or beta > 2:
            raise ValueError("beta must be in [0, 2] so costs stay non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.workflow = workflow
        missing = set(workflow.jobs) - set(base_costs)
        if missing:
            raise ValueError(f"base_costs missing jobs: {sorted(missing)}")
        self.base_costs: Dict[str, float] = {
            job: float(cost) for job, cost in base_costs.items()
        }
        for job, cost in self.base_costs.items():
            require_finite(f"base cost of job {job!r}", cost)
            if cost < 0:
                raise ValueError(f"negative base cost for job {job!r}")
        self.beta = float(beta)
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.seed = int(seed)
        #: pairs drawn one at a time, for resources without a priced column
        self._cache: Dict[Tuple[str, str], float] = {}

    def cache_token(self) -> Optional[object]:
        # draws are deterministic in (seed, job, resource); in-place edits
        # of base_costs require invalidate_cache()
        return self._pricing_version

    def invalidate_cache(self) -> None:
        super().invalidate_cache()
        self._cache.clear()  # per-(job, resource) draws derive from base_costs

    @property
    def has_uniform_communication(self) -> bool:
        return True  # latency + data/bandwidth, independent of the pair

    def _bounds(self, base):
        """``(low, high)`` of the ``w_{i,j}`` draw for base cost(s) ``base``."""
        return base * (1.0 - self.beta / 2.0), base * (1.0 + self.beta / 2.0)

    def computation_cost(self, job_id: str, resource_id: str) -> float:
        # a priced column is the one copy of its prices.  A present store
        # carries the current pricing (invalidate_cache drops it), and a
        # pair's price depends on the job and the resource only, so the
        # store's columns and its job index serve the pair even after a
        # structural edit of the workflow
        store = self.__dict__.get("_structural_cache")
        if store is not None:
            column = store["columns"].get(resource_id)
            if column is not None:
                i = store["index"].get(job_id)
                if i is not None:
                    return column.item(i)
        key = (job_id, resource_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        base = self.base_costs[job_id]
        low, high = self._bounds(base)
        if high > low:
            cost = float(spawn_rng(self.seed, "wij", job_id, resource_id).uniform(low, high))
        else:
            cost = float(base)
        self._cache[key] = cost
        return cost

    def _price_columns(self, resource_ids: Sequence[str]) -> "np.ndarray":
        """All ``jobs × resource_ids`` draws in one kernel pass: the
        one-model call of :func:`price_columns`.

        Bit-identical to :meth:`computation_cost` pair by pair.
        """
        return _price_blocks([(self, list(resource_ids))])[0].T

    def intrinsic_average_computation_cost(self, job_id: str) -> float:
        return self.base_costs[job_id]

    def communication_cost(
        self, src: str, dst: str, src_resource: str, dst_resource: str
    ) -> float:
        if src_resource == dst_resource:
            return 0.0
        return self.latency + self.workflow.data(src, dst) / self.bandwidth

    def average_communication_cost(self, src: str, dst: str) -> float:
        return self.latency + self.workflow.data(src, dst) / self.bandwidth


def price_columns(requests: Iterable[Tuple[CostModel, Sequence[str]]]) -> List[Tuple]:
    """Price the columns of many cost models in one kernel pass.

    ``requests`` yields ``(model, resource_ids)`` pairs.  Every
    :class:`HeterogeneousCostModel` among them gets ``w[:, j]`` for each
    id its column store lacks, installed in that store, bit-identical to
    :meth:`~HeterogeneousCostModel.computation_cost` pair by pair;
    duplicate ids and repeated models are priced once.  The models the
    kernel does not price, and models without a store, are skipped: they
    price on first read, as before.

    This is how a run prices ahead, at grid open, every workflow it will
    plan; :meth:`HeterogeneousCostModel._price_columns` is its one-model
    call.  Returns the ``(model, resource ids)`` it priced.
    """
    pending: Dict[int, Tuple] = {}
    for model, resource_ids in requests:
        if not isinstance(model, HeterogeneousCostModel):
            continue
        entry = pending.get(id(model))
        if entry is None:
            store = model._structural_store()
            if store is None:
                continue
            entry = pending[id(model)] = (model, store["columns"], {})
        columns, wanted = entry[1], entry[2]
        wanted.update((rid, None) for rid in resource_ids if rid not in columns)
    priced = [(model, list(wanted)) for model, _, wanted in pending.values() if wanted]
    for (model, rids), block in zip(priced, _price_blocks(priced)):
        pending[id(model)][1].update(zip(rids, block))
    return priced


def _price_blocks(requests: Sequence[Tuple["HeterogeneousCostModel", List[str]]]):
    """One ``len(rids) × jobs`` block of draws per ``(model, rids)`` request,
    all in one :func:`~repro.utils.rng.uniform_blocks` pass.

    Row ``k`` of a block is ``w[:, rids[k]]``, C-contiguous.  Jobs whose
    band is empty (``high == low``) cost their base and draw nothing; when
    a model draws every job its block is the pass's own view, with no copy.
    """
    grids, plans = [], []
    for model, rids in requests:
        jobs = model.workflow.structure().jobs
        base = np.array([model.base_costs[job] for job in jobs], dtype=np.float64)
        low, high = model._bounds(base)
        drawn = high > low
        plans.append((base, drawn, len(rids)))
        if drawn.all():
            grids.append((model.seed, ("wij",), jobs, rids, low, high))
        elif drawn.any():
            kept = [job for job, d in zip(jobs, drawn.tolist()) if d]
            grids.append((model.seed, ("wij",), kept, rids, low[drawn], high[drawn]))
    draws = iter(uniform_blocks(grids) if grids else ())
    blocks = []
    for base, drawn, width in plans:
        if drawn.all():
            blocks.append(next(draws))
            continue
        block = np.tile(base, (width, 1))
        if drawn.any():
            block[:, drawn] = next(draws)
        blocks.append(block)
    return blocks


class UniformCostModel(CostModel):
    """A degenerate model where every job costs the same on every resource.

    Useful for tests and for isolating scheduling-policy effects from
    heterogeneity effects in ablation benchmarks.
    """

    def __init__(
        self,
        workflow: Workflow,
        *,
        computation: float = 1.0,
        bandwidth: float = 1.0,
        latency: float = 0.0,
    ) -> None:
        for name, value in (
            ("computation", computation), ("bandwidth", bandwidth), ("latency", latency)
        ):
            require_finite(name, value)
        if computation < 0:
            raise ValueError("computation must be non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.workflow = workflow
        self.computation = float(computation)
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)

    def cache_token(self) -> Optional[object]:
        return self._pricing_version

    @property
    def has_uniform_communication(self) -> bool:
        return True

    def computation_cost(self, job_id: str, resource_id: str) -> float:
        if job_id not in self.workflow:
            raise KeyError(job_id)
        return self.computation

    def intrinsic_average_computation_cost(self, job_id: str) -> float:
        return self.computation_cost(job_id, "any")

    def communication_cost(
        self, src: str, dst: str, src_resource: str, dst_resource: str
    ) -> float:
        if src_resource == dst_resource:
            return 0.0
        return self.latency + self.workflow.data(src, dst) / self.bandwidth

    def average_communication_cost(self, src: str, dst: str) -> float:
        return self.latency + self.workflow.data(src, dst) / self.bandwidth


# ----------------------------------------------------------------------
# stochastic ground-truth runtimes (estimate-error experiments)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorModel(abc.ABC):
    """A deterministic sampler of *actual* runtimes around the estimates.

    The paper's whole premise is that execution-time estimates are
    inaccurate; an :class:`ErrorModel` makes that concrete by assigning
    every (job, resource) pair a multiplicative *truth factor*: the actual
    duration of the job on the resource is ``estimate · factor``.  The
    scheduler keeps planning on the unperturbed estimates — only the
    executors (and the Performance Monitor feeding the history repository)
    see the sampled truth.

    Sampling is deterministic in ``(seed, family, replication, scope,
    job_id, resource_id)`` via the hierarchical seeding of
    :mod:`repro.utils.rng`: two queries of the same pair return the same
    factor regardless of query order, and two replications of the same
    experiment draw independent truths.  ``scope`` namespaces the draws,
    decorrelating e.g. the workflows of different tenants (whose DAGs reuse
    the same job identifiers).

    Factors are clamped below at :attr:`floor` so durations stay positive
    under heavy-tailed draws.
    """

    seed: int = 0
    replication: int = 0
    scope: str = ""

    #: registry/CLI identifier; concrete families override it.
    name = "error"
    #: smallest factor a draw can produce (keeps durations positive)
    floor = 0.05

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _draw(self, rng: np.random.Generator, job_id: str, resource_id: str) -> float:
        """Draw the raw (unclamped) factor for one (job, resource) pair."""

    @property
    @abc.abstractmethod
    def magnitude(self) -> float:
        """The family's primary error knob (what uncertainty sweeps vary)."""

    @property
    def is_null(self) -> bool:
        """True when every factor is exactly 1.0 (estimates are the truth).

        Null models short-circuit sampling entirely so zero-noise runs are
        bit-identical to runs with accurate estimates.
        """
        return self.magnitude == 0

    # ------------------------------------------------------------------
    def factor(self, job_id: str, resource_id: str) -> float:
        """The truth factor of ``job_id`` on ``resource_id`` (clamped)."""
        if self.is_null:
            return 1.0
        rng = spawn_rng(self.seed, *self._stream_prefix(), job_id, resource_id)
        return max(self.floor, float(self._draw(rng, job_id, resource_id)))

    def _stream_prefix(self) -> tuple:
        """The tokens between the seed and the pair in a factor's stream."""
        return ("error", self.name, self.replication, self.scope)

    def actual_duration(self, estimate: float, job_id: str, resource_id: str) -> float:
        """The sampled ground-truth duration for an estimated one."""
        if self.is_null:
            return estimate
        return estimate * self.factor(job_id, resource_id)

    # ------------------------------------------------------------------
    def for_replication(self, replication: int) -> "ErrorModel":
        """The same error family drawing the truth of another replication."""
        return replace(self, replication=int(replication))

    def scoped(self, scope: str) -> "ErrorModel":
        """A copy whose draws are namespaced by ``scope`` (e.g. a tenant key)."""
        return replace(self, scope=str(scope))

    def params(self) -> Dict[str, object]:
        """JSON-friendly parameters for experiment ledgers."""
        fields = getattr(self, "__dataclass_fields__", {})
        out: Dict[str, object] = {"name": self.name}
        out.update({key: getattr(self, key) for key in fields})
        return out

    def describe(self) -> str:
        inner = ", ".join(
            f"{k}={v!r}" for k, v in self.params().items() if k != "name"
        )
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class GaussianErrorModel(ErrorModel):
    """Relative Gaussian noise: ``factor = 1 + sigma · N(0, 1)``.

    The symmetric, zero-mean error model of most scheduling-under-
    uncertainty studies; ``sigma`` is the relative standard deviation of
    the actual duration around the estimate.
    """

    sigma: float = 0.2

    name = "gaussian"

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    @property
    def magnitude(self) -> float:
        return self.sigma

    def _draw(self, rng: np.random.Generator, job_id: str, resource_id: str) -> float:
        return 1.0 + self.sigma * float(rng.standard_normal())


@dataclass(frozen=True)
class LognormalErrorModel(ErrorModel):
    """Multiplicative lognormal noise with mean factor 1.

    ``factor = exp(sigma · N(0,1) − sigma²/2)`` — always positive, right-
    skewed (occasional much-slower-than-estimated runs), and mean-one so the
    error is unbiased in expectation.
    """

    sigma: float = 0.2

    name = "lognormal"

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    @property
    def magnitude(self) -> float:
        return self.sigma

    def _draw(self, rng: np.random.Generator, job_id: str, resource_id: str) -> float:
        shift = 0.5 * self.sigma * self.sigma
        return float(np.exp(self.sigma * rng.standard_normal() - shift))


@dataclass(frozen=True)
class UniformErrorModel(ErrorModel):
    """Bounded relative noise: ``factor ~ U[1 − spread, 1 + spread]``.

    The distribution the paper itself suggests for estimate perturbation
    (§3.3).
    """

    spread: float = 0.2

    name = "uniform"

    def __post_init__(self) -> None:
        if self.spread < 0 or self.spread >= 1:
            raise ValueError("spread must be in [0, 1)")

    @property
    def magnitude(self) -> float:
        return self.spread

    def _draw(self, rng: np.random.Generator, job_id: str, resource_id: str) -> float:
        return float(rng.uniform(1.0 - self.spread, 1.0 + self.spread))


@dataclass(frozen=True)
class ResourceBiasErrorModel(ErrorModel):
    """Per-resource systematic bias plus small per-job jitter.

    Every resource misreports its speed by one fixed factor drawn from
    ``U[1 − spread, 1 + spread]`` (benchmark obsolescence: the information
    service's notion of a machine is consistently wrong); optionally each
    job adds independent jitter from ``U[1 − jitter, 1 + jitter]``
    (disabled by default so ``magnitude 0`` really means *no* error).
    History-driven re-estimation shines here: a few observations per
    resource recover the bias almost exactly.
    """

    spread: float = 0.2
    jitter: float = 0.0

    name = "resource_bias"

    def __post_init__(self) -> None:
        if self.spread < 0 or self.spread >= 1:
            raise ValueError("spread must be in [0, 1)")
        if self.jitter < 0 or self.jitter >= 1:
            raise ValueError("jitter must be in [0, 1)")

    @property
    def magnitude(self) -> float:
        return self.spread

    @property
    def is_null(self) -> bool:
        return self.spread == 0 and self.jitter == 0

    def resource_bias(self, resource_id: str) -> float:
        """The fixed truth bias of one resource (shared by all its jobs)."""
        if self.spread == 0:
            return 1.0
        rng = spawn_rng(
            self.seed, "error", self.name, self.replication, self.scope,
            "bias", resource_id,
        )
        return float(rng.uniform(1.0 - self.spread, 1.0 + self.spread))

    def _draw(self, rng: np.random.Generator, job_id: str, resource_id: str) -> float:
        factor = self.resource_bias(resource_id)
        if self.jitter > 0:
            factor *= float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))
        return factor


@dataclass(frozen=True)
class StragglerErrorModel(ErrorModel):
    """Heavy-tailed stragglers: most jobs are near-accurate, a few crawl.

    With probability ``probability`` a (job, resource) pair is a straggler
    and takes ``slowdown ×`` its estimate (the long tail of contended or
    failing nodes); otherwise the estimate is exact, unless an optional
    ``spread`` adds mild bounded noise ``U[1 − spread, 1 + spread]``
    (disabled by default so ``magnitude 0`` really means *no* error).
    """

    probability: float = 0.05
    slowdown: float = 5.0
    spread: float = 0.0

    name = "stragglers"

    def __post_init__(self) -> None:
        if not 0 <= self.probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        if self.slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        if self.spread < 0 or self.spread >= 1:
            raise ValueError("spread must be in [0, 1)")

    @property
    def magnitude(self) -> float:
        return self.probability

    @property
    def is_null(self) -> bool:
        return self.probability == 0 and self.spread == 0

    def _draw(self, rng: np.random.Generator, job_id: str, resource_id: str) -> float:
        # one draw decides straggler-or-not, the next prices the factor, so
        # the pair's truth is a pure function of its stream
        if float(rng.random()) < self.probability:
            return self.slowdown
        if self.spread == 0:
            return 1.0
        return float(rng.uniform(1.0 - self.spread, 1.0 + self.spread))


#: fewer pairs than this are drawn one at a time: a kernel pass costs
#: about 60 us whatever its size, a pair drawn alone about 11 us
_BATCH_FROM = 8


def draw_factors(
    requests: Iterable[Tuple[ErrorModel, Iterable[Tuple[str, str]]]],
) -> List[List[float]]:
    """The truth factors of many error models' pairs, in one kernel pass.

    ``requests`` yields ``(error, pairs)``; entry *k* of the result lists
    ``error.factor(job_id, resource_id)`` for every pair of request *k*,
    bit for bit.  The streams of every non-null request are drawn together
    (:func:`~repro.utils.rng.stream_draws`): each pair's draw is
    ``error._draw`` on its stream, clamped at ``error.floor``.  Fewer than
    :data:`_BATCH_FROM` such pairs are drawn one at a time.
    """
    requests = [(error, list(pairs)) for error, pairs in requests]
    if sum(len(pairs) for error, pairs in requests if not error.is_null) < _BATCH_FROM:
        return [[error.factor(job, rid) for job, rid in pairs] for error, pairs in requests]
    drawn = iter(
        stream_draws(
            (error.seed, error._stream_prefix(), pairs, _clamped_draw(error))
            for error, pairs in requests
            if not error.is_null
        )
    )
    return [[1.0] * len(pairs) if error.is_null else next(drawn) for error, pairs in requests]


def _clamped_draw(error: ErrorModel) -> Callable[[np.random.Generator, Tuple[str, str]], float]:
    """``error``'s factor of a pair from the pair's stream."""
    draw, floor = error._draw, error.floor
    return lambda rng, pair: max(floor, float(draw(rng, *pair)))


#: registry: family name -> ``factory(magnitude, seed=..., **kw) -> ErrorModel``.
#: ``magnitude`` maps to each family's primary knob so uncertainty sweeps
#: can vary "estimate error" uniformly across families.
ERROR_MODELS: Dict[str, Callable[..., ErrorModel]] = {
    "gaussian": lambda magnitude=0.2, seed=0, **kw: GaussianErrorModel(
        sigma=magnitude, seed=seed, **kw
    ),
    "lognormal": lambda magnitude=0.2, seed=0, **kw: LognormalErrorModel(
        sigma=magnitude, seed=seed, **kw
    ),
    "uniform": lambda magnitude=0.2, seed=0, **kw: UniformErrorModel(
        spread=magnitude, seed=seed, **kw
    ),
    "resource_bias": lambda magnitude=0.2, seed=0, **kw: ResourceBiasErrorModel(
        spread=magnitude, seed=seed, **kw
    ),
    "stragglers": lambda magnitude=0.05, seed=0, **kw: StragglerErrorModel(
        probability=magnitude, seed=seed, **kw
    ),
}

_ERROR_MODEL_SUMMARIES: Dict[str, str] = {
    "gaussian": "relative Gaussian noise, factor = 1 + magnitude*N(0,1)",
    "lognormal": "mean-one lognormal noise, right-skewed, sigma = magnitude",
    "uniform": "bounded noise, factor ~ U[1-magnitude, 1+magnitude]",
    "resource_bias": "fixed per-resource bias of +/-magnitude plus small jitter",
    "stragglers": "P(straggler) = magnitude, stragglers run 5x the estimate",
}


class PerturbedCostModel(DelegatingCostModel):
    """The sampled ground truth exposed through the :class:`CostModel` API.

    Wraps an *estimated* cost model and an :class:`ErrorModel`:
    ``computation_cost`` returns the sampled actual duration while every
    communication query and the estimator-facing averages pass through the
    base model unchanged (the uncertainty experiments perturb computation
    time only; transfer estimates stay accurate, matching the paper's
    history repository, which covers job performance, not network
    performance).

    Executors take this as their ``actual_costs`` model; with a null error
    model every query returns the base value bit-for-bit, which is what the
    zero-noise differential suite pins down.
    """

    def __init__(self, base: CostModel, error: ErrorModel) -> None:
        super().__init__(base)
        self.error = error
        self._factor_cache: Dict[Tuple[str, str], float] = {}

    def cache_token(self) -> Optional[object]:
        token = self.base.cache_token()
        if token is None:
            return None
        return ("perturbed", token, self.error)

    def truth_factor(self, job_id: str, resource_id: str) -> float:
        """The (memoized) truth factor of one pair."""
        key = (job_id, resource_id)
        factor = self._factor_cache.get(key)
        if factor is None:
            factor = self.error.factor(job_id, resource_id)
            self._factor_cache[key] = factor
        return factor

    def computation_cost(self, job_id: str, resource_id: str) -> float:
        estimate = self.base.computation_cost(job_id, resource_id)
        if self.error.is_null:
            return estimate
        return estimate * self.truth_factor(job_id, resource_id)


def prime_truth_factors(requests: Iterable[Tuple[CostModel, Iterable[Tuple[str, str]]]]) -> None:
    """Draw ahead, in one kernel pass, the truth factors that the
    :class:`PerturbedCostModel` of each ``(model, pairs)`` request has not
    drawn yet, so that its later ``computation_cost`` queries of those
    pairs draw nothing.

    Any other model, and a perturbed model with a null error model, is
    skipped.  The factors are the ones :meth:`ErrorModel.factor` would
    draw one at a time, bit for bit.
    """
    todo = []
    for model, pairs in requests:
        if not isinstance(model, PerturbedCostModel) or model.error.is_null:
            continue
        drawn = model._factor_cache
        fresh = [pair for pair in dict.fromkeys(pairs) if pair not in drawn]
        if fresh:
            todo.append((model, fresh))
    if todo:
        factors = draw_factors((model.error, fresh) for model, fresh in todo)
        for (model, fresh), drawn in zip(todo, factors):
            model._factor_cache.update(zip(fresh, drawn))
