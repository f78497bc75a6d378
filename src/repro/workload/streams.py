"""Arrival streams of heterogeneous workflows for concurrent tenants.

A *tenant* is one user (or virtual organisation) submitting workflows to
the shared grid.  Its :class:`TenantSpec` describes

* **when** workflows arrive — a Poisson process of rate ``arrival_rate``
  (exponential inter-arrival gaps), or an explicit ``trace`` of arrival
  times replayed verbatim (e.g. recorded from a production log), and
* **what** arrives — a ``mix`` of workload kinds with selection weights:
  parametric random DAGs and the BLAST / WIEN2K / Montage application
  shapes, priced with the tenant's CCR / β / ω_DAG settings.

Determinism: every random draw derives from ``(seed, tenant, purpose, …)``
via :mod:`repro.utils.rng`, so a stream is reproducible from ``(specs,
seed)`` alone — independent of tenant order or how many other tenants
exist, which keeps sweep points comparable when the tenant count is the
swept parameter.  The ``index``-th arrival of tenant ``name``

* has the kind ``Generator.choice(len(mix), p=weights)`` draws from the
  stream ``("mix", name, index)``,
* is built from the case seed ``integers(0, 2**62)`` of the stream
  ``("case", name, index, kind)`` — a random DAG from the seed that case
  seed gives :func:`~repro.generators.random_dag.generate_random_case`'s
  instance ``index``, an application from the case seed itself,
* and is priced like that generator's case.

:meth:`WorkloadStream.arrivals` takes those first draws for the whole
stream in batched :func:`~repro.utils.rng.first_outputs` passes — the kinds,
then the case seeds, then the random DAGs' seeds, then one
:func:`~repro.generators.costs.build_cases` pass that prices every arrival —
bit for bit the per-arrival draws: a choice is the first ``random()``
searched in the weights' normalised cumulative sum, a seed the first raw
output shifted right by two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.generators.blast import generate_blast_workflow
from repro.generators.costs import CaseRequest, WorkflowCase, build_cases
from repro.generators.montage import generate_montage_workflow
from repro.generators.random_dag import (
    RandomDAGParameters,
    case_seed_path,
    generate_random_dag,
    random_case_pricing,
)
from repro.generators.wien2k import generate_wien2k_workflow
from repro.utils.checks import require_finite
from repro.utils.rng import first_outputs, spawn_rng

__all__ = [
    "TenantSpec",
    "WorkflowArrival",
    "WorkloadStream",
    "default_tenants",
    "poisson_arrival_times",
]

#: workload kinds a tenant mix may reference
WORKLOAD_KINDS = ("random", "blast", "wien2k", "montage")

#: default mix: mostly parametric random DAGs with an application tail
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("random", 0.55),
    ("blast", 0.15),
    ("wien2k", 0.15),
    ("montage", 0.15),
)

#: the structure generator of each application kind
_APPLICATION_WORKFLOWS = {
    "blast": generate_blast_workflow,
    "wien2k": generate_wien2k_workflow,
    "montage": generate_montage_workflow,
}


def poisson_arrival_times(
    rate: float,
    *,
    horizon: float,
    max_arrivals: int,
    rng: np.random.Generator,
) -> List[float]:
    """Arrival times of a Poisson process of ``rate`` events per time unit.

    Exponential inter-arrival gaps are drawn until either ``max_arrivals``
    events were produced or the horizon is passed.  ``rate <= 0`` yields an
    empty stream.
    """
    if rate <= 0 or max_arrivals <= 0:
        return []
    times: List[float] = []
    clock = 0.0
    while len(times) < max_arrivals:
        clock += float(rng.exponential(1.0 / rate))
        if clock > horizon:
            break
        times.append(clock)
    return times


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the shared grid.

    Parameters
    ----------
    name:
        Tenant identifier (also the fair-share accounting key).
    arrival_rate:
        Poisson rate λ (workflows per logical time unit).  Ignored when a
        ``trace`` is given.
    trace:
        Explicit arrival times to replay instead of the Poisson process
        (must be non-negative and non-decreasing).
    mix:
        ``(kind, weight)`` pairs over :data:`WORKLOAD_KINDS`; one kind is
        drawn per arrival, proportionally to the weights.
    weight:
        Fair-share weight — tenants with a larger weight are entitled to
        proportionally more of the grid under the ``fair_share`` policy.
    max_arrivals:
        Upper bound on this tenant's Poisson arrivals (bounds run time; the
        clamp is deterministic).
    v, out_degree, parallelism, ccr, beta, omega_dag:
        Workload sizing: random DAGs use ``v``/``out_degree``, applications
        use ``parallelism``; all cases are priced with ``ccr``/``beta``/
        ``omega_dag``.
    deadline_factor:
        Optional service target: each workflow's completion deadline is
        ``arrival + deadline_factor * dedicated_span`` (the span it would
        need alone on the pool it arrived to).  ``None`` = no deadline.
    slo_stretch:
        Optional stretch SLO: a completion whose achieved stretch exceeds
        this value counts as an SLO violation.  ``None`` = no SLO.

    Deadlines and SLOs are *targets*, not constraints — the planner never
    refuses a booking over them, but violations feed the tenant's credit
    score (:mod:`repro.core.credit`) and the run's violation metrics.
    """

    name: str
    arrival_rate: float = 0.005
    trace: Tuple[float, ...] = ()
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX
    weight: float = 1.0
    max_arrivals: int = 6
    v: int = 24
    out_degree: float = 0.2
    parallelism: int = 12
    ccr: float = 1.0
    beta: float = 0.5
    omega_dag: float = 300.0
    deadline_factor: Optional[float] = None
    slo_stretch: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        require_finite("arrival_rate", self.arrival_rate)
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        require_finite("weight", self.weight)
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        for target in ("deadline_factor", "slo_stretch"):
            if getattr(self, target) is not None:
                require_finite(target, getattr(self, target))
        if self.deadline_factor is not None and self.deadline_factor <= 0:
            raise ValueError("deadline_factor must be positive")
        if self.slo_stretch is not None and self.slo_stretch < 1.0:
            raise ValueError("slo_stretch must be at least 1.0")
        if not self.mix:
            raise ValueError("mix must name at least one workload kind")
        for kind, share in self.mix:
            if kind not in WORKLOAD_KINDS:
                raise ValueError(
                    f"unknown workload kind {kind!r}; choose from {WORKLOAD_KINDS}"
                )
            require_finite(f"mix weight of {kind!r}", share)
            if share < 0:
                raise ValueError("mix weights must be non-negative")
        total = sum(share for _, share in self.mix)
        require_finite("mix weight total", total)
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        last = 0.0
        for time in self.trace:
            require_finite("trace arrival time", time)
            if time < 0:
                raise ValueError("trace arrival times must be non-negative")
            if time < last:
                raise ValueError("trace arrival times must be non-decreasing")
            last = time

    def arrival_times(self, *, seed: int, horizon: float) -> List[float]:
        """This tenant's arrival times (trace replay or Poisson draw)."""
        if self.trace:
            return [float(t) for t in self.trace if t <= horizon]
        rng = spawn_rng(seed, "arrivals", self.name)
        return poisson_arrival_times(
            self.arrival_rate, horizon=horizon, max_arrivals=self.max_arrivals, rng=rng
        )

    def kinds(self, unit: np.ndarray) -> List[str]:
        """The workload kinds of arrivals whose ``("mix", name, index)``
        streams start with the ``random()`` doubles ``unit``.

        ``Generator.choice(len(mix), p=weights)`` searches its first
        ``random()`` in the normalised cumulative sum of ``weights``; this
        does the same for every arrival at once.
        """
        weights = np.asarray([share for _, share in self.mix], dtype=float)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        names = [kind for kind, _ in self.mix]
        return [names[i] for i in cdf.searchsorted(unit, side="right").tolist()]

    def random_params(self) -> RandomDAGParameters:
        """The DAG type of this tenant's random arrivals."""
        return RandomDAGParameters(
            v=self.v,
            out_degree=self.out_degree,
            ccr=self.ccr,
            beta=self.beta,
            omega_dag=self.omega_dag,
        )


@dataclass(frozen=True)
class WorkflowArrival:
    """One workflow arriving at the shared grid.

    ``seq`` is the position in the merged chronological stream — the FIFO
    submission order the scheduling policies break ties with.
    """

    tenant: str
    index: int
    time: float
    kind: str
    case: WorkflowCase
    seq: int = 0
    #: service targets inherited from the tenant spec (``None`` = none)
    deadline_factor: Optional[float] = None
    slo_stretch: Optional[float] = None

    @property
    def key(self) -> str:
        """Globally unique workflow identifier, e.g. ``"t1/0"``."""
        return f"{self.tenant}/{self.index}"


@dataclass
class WorkloadStream:
    """A deterministic merged arrival stream over several tenants."""

    tenants: Sequence[TenantSpec]
    seed: int = 0
    horizon: float = 8000.0

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        require_finite("horizon", self.horizon)
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    def tenant(self, name: str) -> TenantSpec:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise KeyError(f"unknown tenant {name!r}")

    def weights(self) -> Dict[str, float]:
        return {spec.name: spec.weight for spec in self.tenants}

    def arrivals(self) -> List[WorkflowArrival]:
        """The merged stream, sorted by (time, tenant, index).

        Workflows arriving at time 0 are allowed (a trace may start with
        0.0) and are planned before any grid event fires.
        """
        timed = [
            (spec, spec.arrival_times(seed=self.seed, horizon=self.horizon))
            for spec in self.tenants
        ]
        unit = first_outputs(
            (self.seed, ("mix", spec.name), range(len(times))) for spec, times in timed
        )
        drawn: List[Tuple[TenantSpec, int, float, str]] = []
        start = 0
        for spec, times in timed:
            kinds = spec.kinds(unit[start:start + len(times)])
            start += len(times)
            drawn.extend(
                (spec, index, time, kind)
                for index, (time, kind) in enumerate(zip(times, kinds))
            )
        case_seeds = _seeds(
            _stream(self.seed, "case", spec.name, index, kind) for spec, index, _, kind in drawn
        )
        cases = build_cases(_requests(drawn, case_seeds))
        merged = sorted(
            zip(drawn, cases), key=lambda item: (item[0][2], item[0][0].name, item[0][1])
        )
        return [
            WorkflowArrival(
                tenant=spec.name,
                index=index,
                time=time,
                kind=kind,
                case=case,
                seq=seq,
                deadline_factor=spec.deadline_factor,
                slo_stretch=spec.slo_stretch,
            )
            for seq, ((spec, index, time, kind), case) in enumerate(merged)
        ]


def _stream(root: int, *path) -> Tuple[int, tuple, tuple]:
    """The :func:`first_outputs` group naming the one stream ``(root, *path)``."""
    return root, path[:-1], path[-1:]


def _seeds(groups) -> List[int]:
    """``integers(0, 2**62)`` of each stream: its first raw output >> 2."""
    return (first_outputs(groups, raw=True) >> np.uint64(2)).tolist()


def _requests(
    drawn: Sequence[Tuple[TenantSpec, int, float, str]], case_seeds: Sequence[int]
) -> List[CaseRequest]:
    """Each arrival's DAG, built as its kind's generator builds it, and its
    pricing."""
    params: Dict[str, RandomDAGParameters] = {}
    random = []
    for (spec, index, _, kind), case_seed in zip(drawn, case_seeds):
        if kind == "random":
            if spec.name not in params:
                params[spec.name] = spec.random_params()
            random.append((params[spec.name], index, case_seed))
    # a random DAG's seed is the instance seed its generator draws under
    # the arrival's case seed
    dag_seeds = iter(
        _seeds(
            _stream(case_seed, *case_seed_path(dag, index)) for dag, index, case_seed in random
        )
    )
    requests = []
    for (spec, index, _, kind), case_seed in zip(drawn, case_seeds):
        if kind == "random":
            dag = params[spec.name]
            dag_seed = next(dag_seeds)
            requests.append(
                CaseRequest(
                    generate_random_dag(dag, seed=dag_seed),
                    **random_case_pricing(dag, case_seed=dag_seed, instance=index),
                )
            )
        else:
            requests.append(
                CaseRequest(
                    _APPLICATION_WORKFLOWS[kind](spec.parallelism),
                    ccr=spec.ccr,
                    beta=spec.beta,
                    omega_dag=spec.omega_dag,
                    seed=case_seed,
                    per_operation=True,
                    params={"generator": kind, "parallelism": spec.parallelism},
                )
            )
    return requests


def default_tenants(
    count: int,
    *,
    arrival_rate: float = 0.005,
    max_arrivals: int = 6,
    v: int = 24,
    parallelism: int = 12,
    ccr: float = 1.0,
    beta: float = 0.5,
    omega_dag: float = 300.0,
    deadline_factor: Optional[float] = None,
    slo_stretch: Optional[float] = None,
) -> List[TenantSpec]:
    """``count`` tenants named ``t1..tN`` with staggered workload mixes.

    Tenant ``t1`` submits the default mixed workload; subsequent tenants
    rotate the mix emphasis (random-heavy, BLAST-heavy, WIEN2K-heavy,
    Montage-heavy) so a multi-tenant run always exercises heterogeneous
    DAG shapes competing for the same resources.
    """
    if count <= 0:
        raise ValueError("tenant count must be positive")
    emphases: List[Tuple[Tuple[str, float], ...]] = [
        DEFAULT_MIX,
        (("random", 0.70), ("blast", 0.30)),
        (("blast", 0.40), ("wien2k", 0.40), ("random", 0.20)),
        (("montage", 0.50), ("random", 0.50)),
    ]
    return [
        TenantSpec(
            name=f"t{i + 1}",
            arrival_rate=arrival_rate,
            mix=emphases[i % len(emphases)],
            max_arrivals=max_arrivals,
            v=v,
            parallelism=parallelism,
            ccr=ccr,
            beta=beta,
            omega_dag=omega_dag,
            deadline_factor=deadline_factor,
            slo_stretch=slo_stretch,
        )
        for i in range(count)
    ]
