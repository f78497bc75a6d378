"""Scheduling-kernel throughput: fast kernel vs the frozen seed kernel.

Unlike the other benchmarks (which regenerate paper tables), this one
measures the *scheduler inner loop itself* — the cost that dominates every
sweep:

* static HEFT throughput (jobs placed per second) at V = 100 / 300 / 1000
  on a 20-resource pool,
* adaptive AHEFT latency over a 10-event growing pool (the paper's
  per-event rescheduling pattern),
* the **sparse scaling series** (ISSUE 10): a bounded-degree DAG family
  (expected out-degree ≈ 20/V, so |E| grows linearly) at V = 1k / 10k /
  100k, measuring warm static HEFT time and per-event reschedule latency
  on the fast kernel alone, with a fitted log–log scaling exponent.

Both are run on the fast kernel (indexed DAG/cost caches, bisect timelines,
rank reuse, hoisted inner loops) and on the seed implementation preserved in
``benchmarks/_seed_reference.py``, asserting

* the schedules are **bit-identical** (same assignments, same makespans),
* the fast kernel is ≥5× faster on 1000-job static HEFT and ≥3× faster on
  the 10-event adaptive run.

Every HEFT and AHEFT plan these blocks time passes ``validate_schedule``
(complete, precedence, no overlap, inside the pool's windows), checked
outside the timed region.

It also gates the shared discrete-event core (ISSUE 7): heap dispatch in
:class:`repro.simulation.event_core.EventCore` must account for ≤10% of the
1000-job adaptive run's wall clock (``event_core_overhead``), and the
closed monitor loop of noisy shared-grid runs (``closed_loop``): on fixed
flash-crowd cases shaped like e2ebench's ``multi_flash_4t`` (4 tenants,
16 resources, ``credit_drf``, admission on), a run under gaussian
estimate error at 0.5 may take at most ``MAX_CLOSED_LOOP_RATIO`` times the
wall clock of the same run under accurate estimates.

``flow_waves`` plans one V=1000 ``mincost_flow`` case on 20 resources
twice — on the frame's dense state and on frames forced onto the scalar
FEA path — asserting the two schedules are equal; its ``speedup`` is the
scalar over the dense wall clock of the same run.  The same plan's waves,
priced once, are then solved again through the one-node-per-task class
graph frozen in ``_seed_reference`` and through the one-supply-node graph
the scheduler uses, asserting equal placements; ``solve_speedup`` is the
oracle over the bundled wall clock, gated in quick mode too at
``MIN_FLOW_SOLVE_SPEEDUP``.

``pricing_memory`` runs one adaptive AHEFT case shaped like e2ebench's
``adaptive_grow_3k`` (V=3000, V=1000 in quick mode; 10 → 30 resources over
10 pool events) under ``tracemalloc`` and counts what its cost model keeps
at the end:
``pool_views_held`` (one per pool-keyed kind) and ``pair_cache_entries``
(no per-pair copy of the column draws) are exact counts, and
``retained_ratio`` — the traced bytes freed by dropping the model's
caches over the bytes of one current-pool rows view — is gated at
``MAX_PRICING_RETAINED_RATIO`` in quick mode too.

``admission_planning`` offers the first closed-loop flash-crowd case
(accurate estimates) through admission control twice: as the controller
does it — saturation read off the busy-free dedicated plan, the plan
around the other tenants' bookings made only for offers saturation
leaves open — and through the eager offer frozen in ``_seed_reference``,
which made both plans every time.  Outcomes, admission actions,
saturation and credits must be equal; ``reschedules_per_offer``, the
plans admission made per offer, is a deterministic count gated at
``MAX_ADMISSION_RESCHEDULES_PER_OFFER`` in quick mode too.

``structure_memory`` traces ``scaling_case(v)`` and one static HEFT plan
at the quick scaling sizes (in full runs too) and keeps what is retained
with the workflow, its cost model and the plan alive: ``retained_ratio``
(bytes at V=3000 over one float64 array of |E|) is gated at
``MAX_STRUCTURE_RETAINED_RATIO`` and ``bytes_exponent`` (fitted bytes vs
|E|) at ``MAX_STRUCTURE_BYTES_EXPONENT``, in quick mode too; raw bytes
are recorded, never gated.

``case_build`` builds the V=3000 random case of the pricing block twice
(in quick mode too): in bulk, as ``generate_random_case`` does — one
vectorised draw pass per pricing step, one ``add_edges`` and one
``set_data_many`` per DAG — and through the scalar build frozen in
``_seed_reference`` (one generator stream per draw, one ``add_edge`` and
one ``set_data`` per edge).  The two cases must be equal (jobs, edges
with their volumes, structure, base and computation costs); ``speedup``,
the scalar over the bulk wall clock, is gated at
``MIN_CASE_BUILD_SPEEDUP``.

``truth_draws`` draws the truth factors of 200 (job, resource) pairs under
each of the five error families (in quick mode too) in one batched pass,
as the closed loop's replay does (``draw_factors``), and one pair at a
time (``ErrorModel.factor``); the two must be equal per family, and one
``draw_factors`` call over all five families (``kernel_passes``, one) must
equal them too.  ``speedup``, one at a time over batched wall clock summed
over the families, is gated at ``MIN_TRUTH_DRAW_SPEEDUP``.

``stream_build`` builds one ``default_tenants(4)`` arrival stream (the
shape of e2ebench's ``multi_flash_4t``) twice, in quick mode too: through
``WorkloadStream.arrivals`` (kinds, case seeds, random-DAG seeds and the
pricing of every arrival, each in one batched kernel pass) and through the
per-arrival oracle ``_seed_reference.seed_arrivals``.  The streams must be
equal arrival for arrival, cases included; ``kernel_passes`` (calls of the
generator kernel per stream, deterministic) is gated at
``MAX_STREAM_BUILD_KERNEL_PASSES`` and ``speedup``, the oracle over the
batched wall clock, at ``MIN_STREAM_BUILD_SPEEDUP``.

``run_pricing`` runs the first closed-loop flash-crowd case (accurate
estimates) and the pricing block's growing pool (V=3000, V=1000 in quick
mode) twice each: as a run prices — every workflow on every resource it
can plan on, in one pass at grid open — and with that pass turned off,
so each column is priced on first read, as before.  The outcomes must be
equal.  ``kernel_passes`` (generator-kernel passes of the run) is gated
at ``MAX_RUN_PRICING_KERNEL_PASSES`` in quick mode too, next to
``lazy_kernel_passes``; ``unread_columns`` counts the columns priced
ahead that the run never read.

``placement_order`` runs two AHEFT adaptive cases — the pricing block's
growing pool (V=3000, V=1000 in quick mode) and a V=200 case under the
``churn`` scenario with gaussian estimate error (e2ebench's
``uncertain_churn_200`` shape) — once with the frame's best-first min-EFT
scan and once with the ordered acceptance chain in its place, asserting
equal schedules.  Per placement it records the pool size (what the
ordered chain visits), the resources the best-first scan evaluates
exactly, the gap searches of each, and the best-first fallbacks; the
evaluated share of the pool is gated at ``MAX_PLACEMENT_EVALUATED_SHARE``
in quick mode too.

Results go to ``benchmarks/results/kernel_scaling.{txt,json}`` and to a
top-level ``BENCH_kernel.json`` so the performance trajectory is tracked
across PRs.  Run directly (``python benchmarks/bench_kernel_scaling.py
[--quick]``) or via pytest.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
from _common import publish, run_once
from _seed_reference import (
    SeedAHEFTScheduler,
    seed_arrivals,
    seed_evaluate,
    seed_generate_random_case,
    seed_heft_schedule,
    seed_solve_through_classes,
)

from repro import registry
from repro.core.admission import AdmissionConfig, AdmissionController
from repro.facade import run as facade_run
from repro.generators.random_dag import (
    RandomDAGParameters,
    generate_random_case,
    generate_random_dag,
)
from repro.resources.dynamics import ResourceChangeModel
from repro.scenarios import materialize
from repro.scheduling import frame as frame_module
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import ResourceTimeline
from repro.scheduling.flow import MinCostFlowScheduler
from repro.scheduling.flow import scheduler as flow_scheduler
from repro.scheduling.flow.graph import solve_assignment
from repro.scheduling.frame import PartialScheduleFrame, _best_first_scan, _ordered_scan
from repro.scheduling.heft import HEFTScheduler
from repro.scheduling.validation import validate_schedule
from repro.simulation import shared_grid
from repro.simulation.event_core import EventCore
from repro.utils import rng as rng_module
from repro.utils.rng import spawn_rng
from repro.workflow.costs import (
    ERROR_MODELS,
    CostModel,
    TabularCostModel,
    _held_prices,
    draw_factors,
)
from repro.workload.streams import WorkloadStream, default_tenants

REPO_ROOT = Path(__file__).resolve().parent.parent

#: DAG sizes for the static-HEFT throughput series.
HEFT_SIZES = (100, 300, 1000)
HEFT_POOL = 20

#: Adaptive-run configuration: 10 pool-growth events.
AHEFT_V = 300
AHEFT_EVENTS = 10

#: Acceptance thresholds (ISSUE 1): the fast kernel must beat the seed by
#: at least this much.
MIN_HEFT_SPEEDUP_AT_1000 = 5.0
MIN_AHEFT_SPEEDUP = 3.0

#: Acceptance threshold (ISSUE 7): heap dispatch of the shared event core
#: must stay within this fraction of total adaptive-run wall clock.
MAX_EVENT_CORE_OVERHEAD = 0.10

#: Event-core overhead is probed on the largest adaptive case.
OVERHEAD_V = 1000

#: Sparse scaling series (ISSUE 10): bounded-degree family, |E| ≈ 10·V.
SCALING_SIZES = (1000, 10_000, 100_000)
SCALING_SIZES_QUICK = (300, 1000, 3000)
SCALING_POOL = 20
SCALING_SEED = 13
SCALING_EVENTS = 5

#: Ceiling on the fitted log–log exponent of warm static HEFT time vs V —
#: the kernel must stay near-linear on the bounded-degree family (gap
#: bookkeeping or rank maintenance going quadratic fails here long before
#: a wall-clock regression is noticeable at small V).
MAX_SCALING_EXPONENT = 1.35

#: Ceiling on the fitted log–log exponent of the adaptive run's reschedule
#: latency vs V on the same family: one replan must stay near-linear in the
#: DAG size.  Like the static exponent it is a ratio of timings from one
#: run, so it holds on any host.  Measured V^1.04–1.17 at the full sizes; a
#: quadratic term that quadruples the V=100k latency reads about V^1.34.
MAX_RESCHEDULE_EXPONENT = 1.25

#: Flow-wave case: one min-cost-flow plan (the scheduler's default
#: ``octopus`` prices) of a V=1000 random DAG on 20 resources.
FLOW_V = 1000
FLOW_POOL = 20

#: Floor on the per-task over the one-supply-node class graph's wall clock
#: on that case's 59 waves — a ratio of timings from one run.  On a 2-vCPU
#: host 18 runs read 1.58–1.87x (median 1.66x); a graph that grows with
#: the wave again reads about 1.0x.
MIN_FLOW_SOLVE_SPEEDUP = 1.3

#: Closed-loop cases: flash-crowd arrival streams of 4 tenants on 16
#: resources (up to 40 arrivals each), one per seed; quick mode runs the
#: first only.
CLOSED_LOOP_SEEDS = (7, 23)
CLOSED_LOOP_SEEDS_QUICK = (7,)
CLOSED_LOOP_ARRIVALS = 40

#: Ceiling on the noisy/exact wall-clock ratio of the closed-loop cases — a
#: ratio of timings from one run.  Since admission reads saturation first
#: the exact run is about 0.13 s, so the ratio jitters: on a 2-vCPU host,
#: 7 fresh processes each read the quick case at 7.14–8.07x (7.52–8.55x and
#: once 9.5x inside the quick run), while the same tree with the frozen
#: rebuild-everything monitor of ``_seed_reference`` patched in read
#: 13.78–15.58x.
MAX_CLOSED_LOOP_RATIO = 10.5

#: Ceiling on the tentative plans admission control makes per offer on the
#: first closed-loop case — a count, so it holds on any host.  The eager
#: offer, which planned around the other tenants' bookings before reading
#: saturation, makes 2.00 there (1,083 plans for 542 offers); the
#: saturation-first offer makes 1.14 (618), as saturation alone decides
#: 465 of the offers.
MAX_ADMISSION_RESCHEDULES_PER_OFFER = 1.5

#: Pricing-memory case: e2ebench's ``adaptive_grow_3k`` shape (V=3000,
#: out-degree 20/V, ``ResourceChangeModel(10, interval=120, fraction=0.15,
#: max_events=10)``), one seed; quick mode runs it at V=1000.
PRICING_V = 3000
PRICING_V_QUICK = 1000
PRICING_SEED = 7
PRICING_EVENTS = 10

#: Ceiling on the bytes the cost model holds at the end of that run over
#: the bytes of one current-pool rows view — a ratio of two sizes from one
#: process, so it holds on any host.  Seeds 7 and 31 read 2.50 at V=3000
#: and 2.47–2.51 at V=1000 (the rows view, the matrix, the priced columns
#: and the communication views); with the ascending-cost order view
#: seed 7 reads 2.57 and 2.54.  The model that kept every past pool's
#: views and a per-pair copy of its draws read 14.8 and 14.3, and each
#: stale rows view adds about 1.0.
MAX_PRICING_RETAINED_RATIO = 3.0

#: Structure-memory case: the sparse scaling family at the quick sizes, in
#: quick and full runs alike.
STRUCTURE_SIZES = SCALING_SIZES_QUICK

#: Ceiling on what a priced V=3000 sparse DAG and one HEFT plan of it keep
#: over the bytes of one float64 array of its |E| — a ratio of two sizes
#: from one process, so it holds on any host.  The structure index that
#: also kept every edge as a pair read 69.95 (560 bytes per edge); without
#: it, 61.95 (496).
MAX_STRUCTURE_RETAINED_RATIO = 66.0

#: Ceiling on the fitted exponent of those retained bytes vs |E| over the
#: sizes: what a DAG keeps must grow at most linearly in its edges.  Reads
#: 0.85 (the workflow's bounded mutation log is a fixed share at V=300);
#: a per-edge cost that grew with |E| would read above 1.
MAX_STRUCTURE_BYTES_EXPONENT = 1.1


#: case_build: the random case it builds (the pricing block's V=3000 case)
CASE_BUILD_V = PRICING_V
CASE_BUILD_SEED = PRICING_SEED
#: floor on case_build's speedup — the scalar over the bulk build of one
#: case, a same-run ratio, so it is enforced in quick mode too; the bulk
#: build reads about 4.5x on a 2-vCPU host
MIN_CASE_BUILD_SPEEDUP = 2.5

#: stream_build: the stream it builds (``multi_flash_4t``'s tenants)
STREAM_BUILD_ARRIVALS = 40
STREAM_BUILD_SEED = 7
#: ceiling on the generator-kernel passes of one stream build, whatever its
#: size: kinds, case seeds, random-DAG seeds, pricing (the oracle makes one
#: per arrival)
MAX_STREAM_BUILD_KERNEL_PASSES = 4
#: floor on stream_build's speedup, the oracle over the batched build, a
#: same-run ratio enforced in quick mode too; reads about 2x on a 2-vCPU host
MIN_STREAM_BUILD_SPEEDUP = 1.5


#: ceiling on the generator-kernel passes one run makes to price its
#: workflows (run_pricing): the pass at grid open prices every workflow on
#: every resource it can plan on.  Pricing each column on first read made
#: about one pass per arrival on the flash crowd (158 for its 154 arrivals
#: at seed 7) and one per pool epoch on the growing pool (11).
MAX_RUN_PRICING_KERNEL_PASSES = 1


#: placement_order: the growing-pool case of the pricing block (V=3000,
#: V=1000 in quick mode) and a V=200 case under the ``churn`` scenario (10
#: initial resources, gaussian estimate error), e2ebench's
#: ``uncertain_churn_200`` shape
PLACEMENT_GROW_V = PRICING_V
PLACEMENT_GROW_V_QUICK = PRICING_V_QUICK
PLACEMENT_CHURN_V = 200
PLACEMENT_SEED = 7
#: ceiling on the share of the pool the best-first scan evaluates exactly
#: per placement, on every case — a ratio of counts, so it holds on any
#: host (the ordered chain visits every resource, 1.0).  The churn case
#: reads 0.13 and the growing pool 0.26 at V=1000 but 0.66 at V=3000,
#: whose crowded timelines put the best finish far past the ready time,
#: where the ``ready + w`` bound prunes little.
MAX_PLACEMENT_EVALUATED_SHARE = 0.75


#: ``truth_draws``: pairs per error family (one replay's queue of a V=200
#: DAG on 10 resources, e2ebench's ``uncertain_churn_200`` size), drawn at
#: this magnitude under this seed
TRUTH_DRAW_PAIRS = 200
TRUTH_DRAW_RESOURCES = 10
TRUTH_DRAW_MAGNITUDE = 0.5
TRUTH_DRAW_SEED = 7
#: floor on one-at-a-time over batched draw time, summed over the five
#: families; a same-run ratio, so enforced in quick mode too
MIN_TRUTH_DRAW_SPEEDUP = 1.6


def _best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best wall-clock time of ``repeats`` runs (dense caches stay warm)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def _random_case(v: int, seed: int):
    params = RandomDAGParameters(
        v=v, out_degree=0.2, ccr=1.0, beta=0.5, omega_dag=300.0
    )
    return generate_random_case(params, seed=seed)


def _warm_cost_draws(workflow, costs, resources) -> None:
    """Materialise the lazy per-(job, resource) draws for both kernels.

    The heterogeneous model prices pairs on demand with a seeded RNG; that
    one-off cost is identical for both kernels, so it is excluded from the
    comparison.
    """
    for job in workflow.jobs:
        for rid in resources:
            costs.computation_cost(job, rid)


def _validated(workflow, costs, schedule, pool=None):
    """``schedule``, after :func:`validate_schedule` found it feasible
    (complete, precedence, no overlap, inside ``pool``'s windows)."""
    validate_schedule(workflow, costs, schedule, pool=pool)
    return schedule


def measure_static_heft(sizes=HEFT_SIZES) -> List[Dict[str, float]]:
    rows: List[Dict[str, float]] = []
    for v in sizes:
        case = _random_case(v, seed=7)
        workflow, costs = case.workflow, case.costs
        resources = [f"r{i + 1}" for i in range(HEFT_POOL)]
        _warm_cost_draws(workflow, costs, resources)
        seed_time = _best_of(lambda: seed_heft_schedule(workflow, costs, resources))
        fast_cold = _best_of(
            lambda: HEFTScheduler().schedule(workflow, costs, resources), repeats=1
        )
        fast_time = _best_of(lambda: HEFTScheduler().schedule(workflow, costs, resources))
        fast = _validated(workflow, costs, HEFTScheduler().schedule(workflow, costs, resources))
        seed = seed_heft_schedule(workflow, costs, resources)
        if fast.to_dict() != seed.to_dict():
            raise AssertionError(f"fast kernel diverged from seed kernel at V={v}")
        rows.append(
            {
                "v": v,
                "resources": HEFT_POOL,
                "seed_seconds": seed_time,
                "fast_cold_seconds": fast_cold,
                "fast_seconds": fast_time,
                "speedup": seed_time / fast_time,
                "seed_jobs_per_sec": v / seed_time,
                "fast_jobs_per_sec": v / fast_time,
                "makespan": fast.makespan(),
            }
        )
    return rows


def measure_adaptive_aheft(v: int = AHEFT_V, events: int = AHEFT_EVENTS) -> Dict[str, float]:
    case = _random_case(v, seed=3)
    workflow, costs = case.workflow, case.costs
    model = ResourceChangeModel(
        initial_size=10, interval=120.0, fraction=0.15, max_events=events
    )
    pool = model.build_pool()
    _warm_cost_draws(workflow, costs, pool.available_at(float("inf")))

    def adaptive(scheduler):
        return facade_run(
            workflow, pool, mode="adaptive", costs=costs, strategy=scheduler
        ).raw

    seed_time = _best_of(lambda: adaptive(SeedAHEFTScheduler()), repeats=2)
    fast_time = _best_of(lambda: adaptive(AHEFTScheduler()), repeats=3)
    fast = adaptive(AHEFTScheduler())
    _validated(workflow, costs, fast.final_schedule, pool)
    seed = adaptive(SeedAHEFTScheduler())
    if fast.final_schedule.to_dict() != seed.final_schedule.to_dict():
        raise AssertionError("adaptive fast kernel diverged from seed kernel")
    if fast.makespan != seed.makespan:
        raise AssertionError("adaptive makespans diverged")
    evaluated = max(fast.evaluated_events, 1)
    return {
        "v": v,
        "pool_events": events,
        "events_evaluated": fast.evaluated_events,
        "seed_seconds": seed_time,
        "fast_seconds": fast_time,
        "speedup": seed_time / fast_time,
        "seed_reschedule_latency": seed_time / evaluated,
        "fast_reschedule_latency": fast_time / evaluated,
        "makespan": fast.makespan,
    }


def scaling_case(v: int, seed: int = SCALING_SEED):
    """A priced sparse DAG: expected out-degree 20/V keeps |E| ≈ 10·V.

    Pricing is vectorised (one tabular draw per (job, resource) pair and
    one per edge) so DAG construction does not drown the kernel
    measurement at V = 100k.
    """
    t0 = time.perf_counter()
    params = RandomDAGParameters(
        v=v, out_degree=min(1.0, 20.0 / v), ccr=1.0, beta=0.5, omega_dag=300.0
    )
    workflow = generate_random_dag(params, seed=seed)
    t1 = time.perf_counter()
    rng = spawn_rng(seed, "scaling-costs", v)
    jobs = list(workflow.jobs)
    n = len(jobs)
    base = np.maximum(1.0, rng.uniform(0.0, 2.0 * 300.0, size=n))
    w = rng.uniform(
        base[:, None] * 0.75, base[:, None] * 1.25, size=(n, SCALING_POOL)
    )
    rids = [f"r{i + 1}" for i in range(SCALING_POOL)]
    table = {job: dict(zip(rids, row)) for job, row in zip(jobs, w.tolist())}
    edges = [(s, d) for s, d, _ in workflow.edges()]
    volumes = rng.uniform(0.0, 2.0 * 300.0, size=len(edges))
    workflow.set_data_many(
        (s, d, volume) for (s, d), volume in zip(edges, volumes.tolist())
    )
    costs = TabularCostModel(workflow, table)
    t2 = time.perf_counter()
    stats = {
        "edges": len(edges),
        "dag_seconds": t1 - t0,
        "pricing_seconds": t2 - t1,
    }
    return workflow, costs, rids, stats


def measure_scaling_series(sizes=SCALING_SIZES) -> Dict[str, object]:
    """Fast-kernel-only series: warm static HEFT + adaptive latency vs V.

    The seed kernel is excluded here (it is quadratic and already pinned
    bit-identical at the smaller sizes above); the series tracks how the
    fast kernel itself scales and fits ``time ≈ c·V^k`` through the warm
    static measurements.
    """
    rows: List[Dict[str, float]] = []
    for v in sizes:
        workflow, costs, rids, stats = scaling_case(v)
        t0 = time.perf_counter()
        static = HEFTScheduler().schedule(workflow, costs, rids)
        cold = time.perf_counter() - t0
        warm = _best_of(
            lambda: HEFTScheduler().schedule(workflow, costs, rids),
            repeats=1 if v > 20_000 else 3,
        )
        _validated(workflow, costs, static)

        def pool():
            return ResourceChangeModel(
                initial_size=10, interval=120.0, fraction=0.15,
                max_events=SCALING_EVENTS,
            ).build_pool()

        def run_adaptive():
            return facade_run(
                workflow, pool(), mode="adaptive",
                costs=costs, strategy=AHEFTScheduler(),
            ).raw

        # best-of: the first run prices the pool's columns and is the
        # noisiest; repeats measure the steady replan loop, which builds
        # each pool's views again (the model keeps the last pool's only)
        adaptive = run_adaptive()
        _validated(workflow, costs, adaptive.final_schedule, pool())
        adaptive_seconds = _best_of(
            run_adaptive, repeats=1 if v > 20_000 else 2
        )
        evaluated = max(adaptive.evaluated_events, 1)
        rows.append(
            {
                "v": v,
                **stats,
                "static_cold_seconds": cold,
                "static_warm_seconds": warm,
                "static_us_per_job": warm / v * 1e6,
                "adaptive_seconds": adaptive_seconds,
                "events_evaluated": adaptive.evaluated_events,
                "reschedule_latency": adaptive_seconds / evaluated,
                "static_makespan": static.makespan(),
                "adaptive_makespan": adaptive.makespan,
            }
        )
    return {"rows": rows, "scaling_exponent": loglog_exponent(rows, "static_warm_seconds")}


def loglog_exponent(rows: List[Dict[str, float]], key: str) -> float:
    """The fitted exponent ``k`` of ``row[key] ≈ c·V^k`` over ``rows``."""
    log_v = np.log([row["v"] for row in rows])
    log_t = np.log([row[key] for row in rows])
    return float(np.polyfit(log_v, log_t, 1)[0])


def measure_event_core_overhead(
    v: int = OVERHEAD_V, events: int = AHEFT_EVENTS
) -> Dict[str, float]:
    """Heap-dispatch overhead of the shared event core on an adaptive run.

    All four execution paths replay through :class:`EventCore`; this probes
    the adaptive path (the event-densest one) with the class-level
    instrumentation split: ``dispatch_seconds`` is heap pop + bookkeeping,
    ``handler_seconds`` is the policy callbacks (rescheduling itself).  The
    *fraction* is the gated quantity — it is a ratio of wall clocks measured
    in the same run, so it stays meaningful on throttled CI runners.
    """
    case = _random_case(v, seed=11)
    workflow, costs = case.workflow, case.costs
    model = ResourceChangeModel(
        initial_size=10, interval=120.0, fraction=0.15, max_events=events
    )
    pool = model.build_pool()
    _warm_cost_draws(workflow, costs, pool.available_at(float("inf")))

    def adaptive():
        return facade_run(workflow, pool, mode="adaptive", costs=costs)

    adaptive()  # warm run: lazy caches priced outside the instrumented pass
    EventCore.instrument(True)
    try:
        result = adaptive()
        stats = dict(EventCore.stats)
    finally:
        EventCore.instrument(False)
    total = stats["dispatch_seconds"] + stats["handler_seconds"]
    fraction = stats["dispatch_seconds"] / total if total > 0 else 0.0
    return {
        "v": v,
        "pool_events": events,
        "events_processed": int(stats["events"]),
        "events_evaluated": result.raw.evaluated_events,
        "dispatch_seconds": stats["dispatch_seconds"],
        "handler_seconds": stats["handler_seconds"],
        "overhead_fraction": fraction,
        "makespan": result.makespan,
    }


def _record_class_waves(plan: Callable[[], object]) -> List[tuple]:
    """The task-independent waves one ``plan()`` solves, each as its ready
    tasks, resources, per-resource prices and deferral price."""
    waves = []

    def recording_solve(tasks, resources, assignment_cost, deferral_cost, **kwargs):
        if kwargs.get("task_independent"):
            probe = tasks[0]
            prices = [assignment_cost(probe, rid) for rid in resources]
            waves.append((list(tasks), list(resources), prices, deferral_cost(probe)))
        return solve_assignment(tasks, resources, assignment_cost, deferral_cost, **kwargs)

    flow_scheduler.solve_assignment = recording_solve
    try:
        plan()
    finally:
        flow_scheduler.solve_assignment = solve_assignment
    return waves


def measure_flow_waves(v: int = FLOW_V) -> Dict[str, float]:
    """Whole ``mincost_flow`` plans on dense vs forced-scalar frames, and
    the plan's waves on the per-task vs the one-supply-node class graph.

    Every wave books its placed tasks through ``frame.earliest_finish``;
    the dense frame answers from its per-job state and computation rows,
    the scalar one through one ``fea`` call per predecessor.  The two
    schedules must be equal, and so must the placements of both class
    graphs on every wave.
    """
    case = _random_case(v, seed=7)
    workflow, costs = case.workflow, case.costs
    resources = [f"r{i + 1}" for i in range(FLOW_POOL)]
    _warm_cost_draws(workflow, costs, resources)
    scheduler = MinCostFlowScheduler()

    def dense_plan():
        return scheduler.schedule(workflow, costs, resources)

    def scalar_plan():
        frame = PartialScheduleFrame(workflow, costs, resources, name=scheduler.name)
        frame._fast = False
        return scheduler.place(frame)

    dense_seconds = _best_of(dense_plan)
    scalar_seconds = _best_of(scalar_plan)
    dense = dense_plan()
    if dense.to_dict() != scalar_plan().to_dict():
        raise AssertionError("dense flow waves diverged from the scalar frame")

    waves = [
        (
            tasks,
            pool,
            lambda _task, rid, price=dict(zip(pool, prices)): price[rid],
            lambda _task, deferral=deferral: deferral,
        )
        for tasks, pool, prices, deferral in _record_class_waves(dense_plan)
    ]

    def oracle_solves():
        return [seed_solve_through_classes(*wave) for wave in waves]

    def bundled_solves():
        return [solve_assignment(*wave, task_independent=True) for wave in waves]

    # alternated, so that both graphs see the same stretches of host load
    oracle_solve_seconds = bundled_solve_seconds = float("inf")
    for _ in range(9):
        oracle_solve_seconds = min(oracle_solve_seconds, _best_of(oracle_solves, repeats=1))
        bundled_solve_seconds = min(bundled_solve_seconds, _best_of(bundled_solves, repeats=1))
    if oracle_solves() != bundled_solves():
        raise AssertionError("the one-supply-node class graph diverged from the oracle")
    return {
        "v": v,
        "resources": FLOW_POOL,
        "dense_seconds": dense_seconds,
        "scalar_seconds": scalar_seconds,
        "speedup": scalar_seconds / dense_seconds,
        "makespan": dense.makespan(),
        "waves": len(waves),
        "oracle_solve_seconds": oracle_solve_seconds,
        "bundled_solve_seconds": bundled_solve_seconds,
        "solve_speedup": oracle_solve_seconds / bundled_solve_seconds,
    }


def _flash_crowd_case(seed: int, max_arrivals: int = CLOSED_LOOP_ARRIVALS):
    """One closed-loop case: a ``default_tenants(4)`` stream offered to a
    16-resource ``flash_crowd`` pool, as ``(arrivals, scenario run)``."""
    tenants = default_tenants(
        4, arrival_rate=0.002, max_arrivals=max_arrivals, v=12, parallelism=6
    )
    arrivals = WorkloadStream(tenants, seed=seed, horizon=20000.0).arrivals()
    scenario = materialize(
        registry.make("scenario", "flash_crowd"), initial_size=16, seed=seed, horizon=20000.0
    )
    return arrivals, scenario


def _shared_grid_run(arrivals, scenario, **options):
    """The closed-loop cases' shared-grid run: ``credit_drf``, admission on."""
    return facade_run(
        arrivals,
        scenario.pool,
        mode="multi",
        perf_profile=scenario.profile,
        policy="credit_drf",
        admission=AdmissionConfig(),
        **options,
    )


def measure_closed_loop(seeds=CLOSED_LOOP_SEEDS, max_arrivals: int = CLOSED_LOOP_ARRIVALS):
    """Wall clock of noisy vs accurate-estimate shared-grid runs.

    Each case is a ``default_tenants(4)`` stream (``max_arrivals`` each,
    12-job DAGs) offered to a 16-resource ``flash_crowd`` pool under
    ``credit_drf`` with admission control, run once with accurate
    estimates (after an untimed warm-up run that prices the lazy cost
    draws) and once under a gaussian ground truth at magnitude 0.5, where
    every tenant runs the closed monitor loop: advance the truth, step,
    replay jointly, re-arm the deviation trigger.  ``ratio`` is the summed
    noisy over the summed exact wall clock.
    """
    exact_seconds = noisy_seconds = 0.0
    arrivals_total = exact_decisions = noisy_decisions = 0
    for seed in seeds:
        arrivals, scenario = _flash_crowd_case(seed, max_arrivals)
        _shared_grid_run(arrivals, scenario)  # warm-up: lazy cost draws priced untimed
        gc.collect()
        t0 = time.perf_counter()
        exact = _shared_grid_run(arrivals, scenario)
        exact_seconds += time.perf_counter() - t0
        noise = registry.make("error_model", "gaussian", magnitude=0.5, seed=seed)
        gc.collect()
        t0 = time.perf_counter()
        noisy = _shared_grid_run(arrivals, scenario, error_model=noise)
        noisy_seconds += time.perf_counter() - t0
        arrivals_total += len(arrivals)
        exact_decisions += len(exact.decisions)
        noisy_decisions += len(noisy.decisions)
    return {
        "cases": len(seeds),
        "arrivals": arrivals_total,
        "exact_decisions": exact_decisions,
        "noisy_decisions": noisy_decisions,
        "exact_seconds": exact_seconds,
        "noisy_seconds": noisy_seconds,
        "ratio": noisy_seconds / exact_seconds,
    }


def measure_admission_planning(seed: int = CLOSED_LOOP_SEEDS[0]) -> Dict[str, object]:
    """Admission control on one flash-crowd case, saturation first vs the
    eager oracle: the plans each offer made, and equal outcomes."""
    arrivals, scenario = _flash_crowd_case(seed)
    live = AdmissionController.evaluate
    reschedules = [0]

    class CountingAHEFT(AHEFTScheduler):
        def reschedule(self, *args, **kwargs):
            reschedules[0] += 1
            return super().reschedule(*args, **kwargs)

    def offer_through(evaluate):
        planned = []

        def counting_evaluate(controller, planner, arrival, clock, **kwargs):
            before = reschedules[0]
            outcome = evaluate(controller, planner, arrival, clock, **kwargs)
            planned.append(reschedules[0] - before)
            return outcome

        AdmissionController.evaluate = counting_evaluate
        try:
            gc.collect()
            t0 = time.perf_counter()
            raw = _shared_grid_run(arrivals, scenario, scheduler_factory=CountingAHEFT).raw
            seconds = time.perf_counter() - t0
        finally:
            AdmissionController.evaluate = live
        fingerprint = (
            [
                (o.key, o.completed_at, o.dedicated_span, o.schedule.to_dict())
                for o in raw.outcomes
            ],
            [(d.time, d.key, d.action, d.saturation, d.deferrals) for d in raw.admission],
            raw.credits,
        )
        return fingerprint, raw.admission, planned, seconds

    _shared_grid_run(arrivals, scenario)  # warm-up: lazy cost draws priced untimed
    ours, decisions, planned, seconds = offer_through(live)
    theirs, _, oracle_planned, oracle_seconds = offer_through(seed_evaluate)
    if ours != theirs:
        raise AssertionError("saturation-first admission diverged from the eager oracle")
    offers = len(decisions)
    return {
        "arrivals": len(arrivals),
        "offers": offers,
        "admitted": sum(1 for d in decisions if d.action == "admit"),
        "saturation_decided": sum(1 for d in decisions if d.predicted_stretch is None),
        "reschedules": sum(planned),
        "oracle_reschedules": sum(oracle_planned),
        "reschedules_per_offer": sum(planned) / offers,
        "oracle_reschedules_per_offer": sum(oracle_planned) / offers,
        "seconds": seconds,
        "oracle_seconds": oracle_seconds,
    }


def _churn_case(v: int, seed: int):
    """e2ebench's ``uncertain_churn_200`` inputs: a random DAG, the
    ``churn`` scenario on 10 initial resources and a gaussian truth."""
    case = generate_random_case(
        RandomDAGParameters(v=v, out_degree=20 / v, ccr=1.0, beta=0.5, omega_dag=300.0),
        seed=seed,
    )
    scenario = materialize(
        registry.make("scenario", "churn"), initial_size=10, seed=seed, horizon=8000.0
    )
    noise = registry.make("error_model", "gaussian", seed=seed)
    return case, dict(pool=scenario.pool, perf_profile=scenario.profile, error_model=noise)


def _counted_placements(run: Callable[[], object], scan: Callable) -> tuple:
    """``run()`` with ``scan`` as the frame's insertion scan, counted.

    Returns the run's result and, summed over every scan call: the
    placements, the pool sizes, the resources evaluated exactly (as the
    best-first scan counts them), the gap searches (``earliest_start``
    calls made inside a scan) and the fallbacks to the ordered chain.
    """
    counts = dict(placements=0, pool=0, evaluated=0, gap_searches=0, fallbacks=0)
    inside = [False]
    earliest_start = ResourceTimeline.earliest_start

    def counted_search(self, *args, **kwargs):
        if inside[0]:
            counts["gap_searches"] += 1
        return earliest_start(self, *args, **kwargs)

    def counted_scan(buf, d1, over, w_row, order_row):
        evaluated, fallbacks = buf.evaluated, buf.fallbacks
        inside[0] = True
        try:
            return scan(buf, d1, over, w_row, order_row)
        finally:
            inside[0] = False
            counts["placements"] += 1
            counts["pool"] += len(w_row)
            counts["evaluated"] += buf.evaluated - evaluated
            counts["fallbacks"] += buf.fallbacks - fallbacks

    ResourceTimeline.earliest_start = counted_search
    frame_module._best_first_scan = counted_scan
    try:
        result = run()
    finally:
        ResourceTimeline.earliest_start = earliest_start
        frame_module._best_first_scan = _best_first_scan
    return result, counts


def measure_placement_order(
    grow_v: int = PLACEMENT_GROW_V,
    churn_v: int = PLACEMENT_CHURN_V,
    seed: int = PLACEMENT_SEED,
) -> Dict[str, object]:
    """Resources the best-first min-EFT scan evaluates, against the
    ordered chain.

    Each case runs twice through AHEFT's adaptive loop: with the frame's
    best-first scan and with the ordered chain (``_ordered_scan``) in its
    place; the schedules and makespans must be equal.  Per placement, the
    ordered chain visits every resource of the pool (``pool_per_placement``)
    while the best-first scan evaluates ``evaluated_per_placement`` of them
    exactly; both count their gap searches.
    """
    rows = {}
    grow = generate_random_case(
        RandomDAGParameters(v=grow_v, out_degree=20 / grow_v, ccr=1.0, beta=0.5, omega_dag=300.0),
        seed=seed,
    )
    grow_pool = ResourceChangeModel(10, interval=120, fraction=0.15, max_events=PRICING_EVENTS)
    churn, churn_inputs = _churn_case(churn_v, seed)
    cases = (
        ("grow", grow_v, grow, dict(pool=grow_pool.build_pool())),
        ("churn", churn_v, churn, churn_inputs),
    )
    for name, v, case, inputs in cases:

        def run(case=case, inputs=inputs):
            return facade_run(
                case.workflow, costs=case.costs, mode="adaptive", strategy=AHEFTScheduler(),
                **inputs,
            )

        best_first, counts = _counted_placements(run, _best_first_scan)
        ordered, ordered_counts = _counted_placements(run, _ordered_scan)
        assert best_first.schedule.to_dict() == ordered.schedule.to_dict()
        assert best_first.makespan == ordered.makespan
        assert counts["placements"] == ordered_counts["placements"] > 0
        placements = counts["placements"]
        pool = counts["pool"] / placements
        evaluated = counts["evaluated"] / placements
        rows[name] = {
            "v": v,
            "makespan": best_first.makespan,
            "placements": placements,
            "pool_per_placement": pool,
            "evaluated_per_placement": evaluated,
            "evaluated_share": evaluated / pool,
            "gap_searches_per_placement": counts["gap_searches"] / placements,
            "ordered_gap_searches_per_placement": ordered_counts["gap_searches"] / placements,
            "fallbacks": counts["fallbacks"],
        }
    return rows


def measure_pricing_memory(
    v: int = PRICING_V, seed: int = PRICING_SEED, events: int = PRICING_EVENTS
) -> Dict[str, object]:
    """What the cost model of a growing-pool adaptive run holds at its end.

    The run is traced by ``tracemalloc`` from the start, so every view the
    model memoised along the way is counted: ``retained`` is the traced
    memory freed when the model's caches are dropped
    (``invalidate_cache``), and the ratio divides it by the traced size of
    one ``tolist`` rows view of the final pool.
    """
    case = generate_random_case(
        RandomDAGParameters(v=v, out_degree=20 / v, ccr=1.0, beta=0.5, omega_dag=300.0),
        seed=seed,
    )
    pool = ResourceChangeModel(10, interval=120, fraction=0.15, max_events=events).build_pool()
    costs = case.costs
    gc.collect()
    tracemalloc.start()
    try:
        result = facade_run(
            case.workflow, pool, mode="adaptive", costs=costs, strategy=AHEFTScheduler()
        )
        held, pair_cache_entries = _held_prices(costs)
        gc.collect()
        holding = tracemalloc.get_traced_memory()[0]
        costs.invalidate_cache()
        gc.collect()
        retained = holding - tracemalloc.get_traced_memory()[0]
        final_pool = pool.available_at(float("inf"))
        matrix = costs.computation_matrix(final_pool)
        before = tracemalloc.get_traced_memory()[0]
        rows = matrix.tolist()
        rows_bytes = tracemalloc.get_traced_memory()[0] - before
        del rows
    finally:
        tracemalloc.stop()
    return {
        "v": v,
        "pool_events": events,
        "resources": len(final_pool),
        "makespan": result.makespan,
        "pool_views_held": len(held),
        "pair_cache_entries": pair_cache_entries,
        "retained_mib": retained / 2**20,
        "retained_ratio": retained / rows_bytes,
    }


def measure_structure_memory(sizes=STRUCTURE_SIZES) -> Dict[str, object]:
    """What a priced sparse DAG and one HEFT plan of it keep, per edge.

    Per size, ``tracemalloc`` traces ``scaling_case(v)`` and one static
    HEFT plan on its 20 resources; the retained bytes are what is still
    traced after a collection with the workflow, its cost model and the
    plan alive (the structure index, the cost views and the rank levels
    built on the way included).  ``retained_ratio`` divides them by the
    traced size of one float64 array of |E|, measured in the same process;
    ``bytes_exponent`` is the fitted ``k`` of ``bytes ≈ c·|E|^k`` over the
    sizes.
    """
    # untraced warm-up: one-off allocations (lazy imports, interpreter
    # caches) are no part of any size's structure
    workflow, costs, rids, _ = scaling_case(sizes[0])
    HEFTScheduler().schedule(workflow, costs, rids)
    del workflow, costs
    rows: List[Dict[str, float]] = []
    for v in sizes:
        gc.collect()
        tracemalloc.start()
        try:
            workflow, costs, rids, stats = scaling_case(v)
            plan = HEFTScheduler().schedule(workflow, costs, rids)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
            per_edge = np.zeros(stats["edges"], dtype=np.float64)
            array_bytes = tracemalloc.get_traced_memory()[0] - retained
        finally:
            tracemalloc.stop()
        rows.append(
            {
                "v": v,
                "edges": stats["edges"],
                "makespan": plan.makespan(),
                "retained_mib": retained / 2**20,
                "retained_bytes_per_edge": retained / stats["edges"],
                "retained_ratio": retained / array_bytes,
            }
        )
        del workflow, costs, plan
    log_e = np.log([row["edges"] for row in rows])
    log_b = np.log([row["retained_mib"] for row in rows])
    return {
        "rows": rows,
        "retained_ratio": rows[-1]["retained_ratio"],
        "bytes_exponent": float(np.polyfit(log_e, log_b, 1)[0]),
    }


def _case_view(case) -> tuple:
    """A generated case as plain values: jobs and operations, edges with
    their volumes, the structure index, base costs and every computation
    cost on two resources."""
    workflow, structure = case.workflow, case.workflow.structure()
    return (
        [(job, workflow.job(job).operation) for job in workflow.jobs],
        workflow.edges(),
        (structure.topo, structure.succ, structure.pred),
        case.costs.base_costs,
        case.costs.computation_matrix(["r1", "r2"]).tolist(),
    )


def _kernel_passes(build: Callable[[], object]):
    """``build()`` and how many generator-kernel passes it made."""
    original = rng_module._seed_outputs
    passes = []

    def counting(seeds):
        passes.append(seeds.size)
        return original(seeds)

    rng_module._seed_outputs = counting
    try:
        return build(), len(passes)
    finally:
        rng_module._seed_outputs = original


def measure_stream_build(
    max_arrivals: int = STREAM_BUILD_ARRIVALS, seed: int = STREAM_BUILD_SEED
) -> Dict[str, object]:
    """One ``default_tenants(4)`` stream built in batched passes and through
    the per-arrival oracle.

    The builds alternate, best of five each; the streams must be equal
    arrival for arrival (order, times, kinds, case parameters and cases).
    """
    tenants = default_tenants(
        4, arrival_rate=0.002, max_arrivals=max_arrivals, v=12, parallelism=6
    )
    stream = WorkloadStream(tenants, seed=seed, horizon=20000.0)
    oracle_times, batched_times = [], []
    for _ in range(5):
        oracle_times.append(_best_of(lambda: seed_arrivals(stream), repeats=1))
        batched_times.append(_best_of(stream.arrivals, repeats=1))
    oracle_seconds, batched_seconds = min(oracle_times), min(batched_times)
    batched, passes = _kernel_passes(stream.arrivals)
    oracle, oracle_passes = _kernel_passes(lambda: seed_arrivals(stream))
    views = [
        [
            (a.seq, a.key, a.time, a.kind, a.case.params, _case_view(a.case))
            for a in arrivals
        ]
        for arrivals in (batched, oracle)
    ]
    if views[0] != views[1]:
        raise AssertionError("the batched stream build diverged from the per-arrival oracle")
    return {
        "arrivals": len(batched),
        "jobs": sum(a.case.workflow.num_jobs for a in batched),
        "edges": sum(a.case.workflow.num_edges for a in batched),
        "kernel_passes": passes,
        "oracle_kernel_passes": oracle_passes,
        "batched_seconds": batched_seconds,
        "oracle_seconds": oracle_seconds,
        "speedup": oracle_seconds / batched_seconds,
    }


def _grow_case(v: int, seed: int = PRICING_SEED):
    """The pricing block's growing-pool case: a random DAG and a pool of
    10 resources growing over ``PRICING_EVENTS`` events."""
    case = generate_random_case(
        RandomDAGParameters(v=v, out_degree=20 / v, ccr=1.0, beta=0.5, omega_dag=300.0),
        seed=seed,
    )
    pool = ResourceChangeModel(10, interval=120, fraction=0.15, max_events=PRICING_EVENTS)
    return case, pool.build_pool()


def _run_view(result) -> object:
    """The outcome of a run as plain values: schedules and completions."""
    if result.mode == "multi":
        return [(o.key, o.completed_at, o.schedule.to_dict()) for o in result.raw.outcomes]
    return result.makespan, result.schedule.to_dict()


def _priced_run(run: Callable[[], object]):
    """``run()``, its kernel passes, the columns it priced ahead at grid
    open, and how many of those it never read."""
    priced, read = [], set()
    ahead, columns = shared_grid.price_columns, CostModel.computation_columns

    def pricing(requests):
        done = ahead(requests)
        priced.extend(done)
        return done

    def reading(model, resource_ids):
        read.update((id(model), rid) for rid in resource_ids)
        return columns(model, resource_ids)

    shared_grid.price_columns, CostModel.computation_columns = pricing, reading
    try:
        result, passes = _kernel_passes(run)
    finally:
        shared_grid.price_columns, CostModel.computation_columns = ahead, columns
    pairs = {(id(model), rid) for model, rids in priced for rid in rids}
    return result, passes, len(priced), len(pairs), len(pairs - read)


def measure_run_pricing(grow_v: int = PRICING_V) -> Dict[str, object]:
    """The pricing kernel passes of a flash-crowd and a growing-pool run,
    priced ahead at grid open and priced on first read."""

    def flash_crowd():
        arrivals, scenario = _flash_crowd_case(CLOSED_LOOP_SEEDS[0])
        return lambda: _shared_grid_run(arrivals, scenario)

    def grow():
        case, pool = _grow_case(grow_v)
        return lambda: facade_run(
            case.workflow, pool, mode="adaptive", costs=case.costs, strategy=AHEFTScheduler()
        )

    rows = {}
    for name, build in (("flash_crowd", flash_crowd), ("grow", grow)):
        result, passes, workflows, columns, unread = _priced_run(build())
        ahead = shared_grid.price_columns
        shared_grid.price_columns = lambda requests: []
        try:
            lazy, lazy_passes = _kernel_passes(build())
        finally:
            shared_grid.price_columns = ahead
        if _run_view(result) != _run_view(lazy):
            raise AssertionError(f"the {name} run priced ahead diverged from the lazy run")
        rows[name] = {
            "makespan": result.makespan,
            "workflows": workflows,
            "columns": columns,
            "unread_columns": unread,
            "kernel_passes": passes,
            "lazy_kernel_passes": lazy_passes,
        }
    rows["grow"]["v"] = grow_v
    return rows


def measure_case_build(v: int = CASE_BUILD_V, seed: int = CASE_BUILD_SEED) -> Dict[str, object]:
    """One random case built in bulk and through the scalar oracle.

    The two builds alternate, best of three each; the cases must be equal
    (jobs and operations, edges with their volumes, the structure index,
    base costs and every computation cost on two resources).
    """
    params = RandomDAGParameters(
        v=v, out_degree=20 / v, ccr=1.0, beta=0.5, omega_dag=300.0
    )
    oracle_times, bulk_times = [], []
    for _ in range(3):
        oracle_times.append(
            _best_of(lambda: seed_generate_random_case(params, seed=seed), repeats=1)
        )
        bulk_times.append(_best_of(lambda: generate_random_case(params, seed=seed), repeats=1))
    oracle_seconds, bulk_seconds = min(oracle_times), min(bulk_times)
    cases = [
        build(params, seed=seed) for build in (generate_random_case, seed_generate_random_case)
    ]
    if _case_view(cases[0]) != _case_view(cases[1]):
        raise AssertionError("the bulk case build diverged from the scalar oracle")
    return {
        "v": v,
        "jobs": cases[0].workflow.num_jobs,
        "edges": cases[0].workflow.num_edges,
        "bulk_seconds": bulk_seconds,
        "oracle_seconds": oracle_seconds,
        "speedup": oracle_seconds / bulk_seconds,
    }


def measure_truth_draws(pairs: int = TRUTH_DRAW_PAIRS) -> Dict[str, object]:
    """Truth factors of a fixed set of (job, resource) pairs per error
    family, drawn in one batched pass (:func:`draw_factors`) and one pair at
    a time (``ErrorModel.factor``).

    The two draws alternate, best of three each, and must be equal per
    family; ``kernel_passes`` counts the kernel passes of one
    :func:`draw_factors` call over all five families, whose factors must
    equal the per-family ones.
    """
    keys = [(f"n{k}", f"r{k % TRUTH_DRAW_RESOURCES}") for k in range(pairs)]
    models = [
        registry.make(
            "error_model", family, magnitude=TRUTH_DRAW_MAGNITUDE, seed=TRUTH_DRAW_SEED
        ).scoped("bench")
        for family in sorted(ERROR_MODELS)
    ]
    families: Dict[str, Dict[str, float]] = {}
    for model in models:
        if draw_factors([(model, keys)]) != [[model.factor(*key) for key in keys]]:
            raise AssertionError(f"batched {model.name} truth factors diverged from factor()")
        batched_times, scalar_times = [], []
        for _ in range(3):
            scalar_times.append(
                _best_of(lambda: [model.factor(*key) for key in keys], repeats=1)
            )
            batched_times.append(_best_of(lambda: draw_factors([(model, keys)]), repeats=1))
        families[model.name] = {
            "batched_seconds": min(batched_times),
            "scalar_seconds": min(scalar_times),
            "speedup": min(scalar_times) / min(batched_times),
        }
    passes = []
    seed_states = rng_module._seed_states

    def counting(seeds):
        passes.append(seeds.size)
        return seed_states(seeds)

    rng_module._seed_states = counting
    try:
        joint = draw_factors((model, keys) for model in models)
    finally:
        rng_module._seed_states = seed_states
    if joint != [[model.factor(*key) for key in keys] for model in models]:
        raise AssertionError("one pass over all families diverged from one pass per family")
    batched = sum(row["batched_seconds"] for row in families.values())
    scalar = sum(row["scalar_seconds"] for row in families.values())
    return {
        "pairs": pairs,
        "resources": TRUTH_DRAW_RESOURCES,
        "families": families,
        "kernel_passes": len(passes),
        "batched_seconds": batched,
        "scalar_seconds": scalar,
        "speedup": scalar / batched,
    }


def kernel_scaling_results(*, quick: bool = False) -> Dict[str, object]:
    # first, so that no earlier case's leftovers weigh on the ratio
    closed_loop = measure_closed_loop(CLOSED_LOOP_SEEDS_QUICK if quick else CLOSED_LOOP_SEEDS)
    sizes = (50, 100) if quick else HEFT_SIZES
    heft_rows = measure_static_heft(sizes)
    aheft_row = measure_adaptive_aheft(
        v=100 if quick else AHEFT_V, events=5 if quick else AHEFT_EVENTS
    )
    overhead_row = measure_event_core_overhead(
        v=300 if quick else OVERHEAD_V, events=AHEFT_EVENTS
    )
    scaling = measure_scaling_series(
        SCALING_SIZES_QUICK if quick else SCALING_SIZES
    )
    flow_waves = measure_flow_waves()
    admission_planning = measure_admission_planning()
    pricing_memory = measure_pricing_memory(PRICING_V_QUICK if quick else PRICING_V)
    structure_memory = measure_structure_memory()
    case_build = measure_case_build()
    truth_draws = measure_truth_draws()
    stream_build = measure_stream_build()
    run_pricing = measure_run_pricing(PRICING_V_QUICK if quick else PRICING_V)
    placement_order = measure_placement_order(
        PLACEMENT_GROW_V_QUICK if quick else PLACEMENT_GROW_V
    )
    return {
        "quick": quick,
        "static_heft": heft_rows,
        "adaptive_aheft": aheft_row,
        "event_core_overhead": overhead_row,
        "scaling_series": scaling,
        "closed_loop": closed_loop,
        "flow_waves": flow_waves,
        "admission_planning": admission_planning,
        "pricing_memory": pricing_memory,
        "structure_memory": structure_memory,
        "case_build": case_build,
        "truth_draws": truth_draws,
        "stream_build": stream_build,
        "run_pricing": run_pricing,
        "placement_order": placement_order,
    }


def render(results: Dict[str, object]) -> str:
    lines = ["static HEFT (20 resources):",
             "      V     seed jobs/s     fast jobs/s   speedup"]
    for row in results["static_heft"]:
        lines.append(
            f"  {row['v']:5d}  {row['seed_jobs_per_sec']:12.0f}  "
            f"{row['fast_jobs_per_sec']:14.0f}  {row['speedup']:7.1f}x"
        )
    a = results["adaptive_aheft"]
    lines.append("")
    lines.append(
        f"adaptive AHEFT (V={a['v']}, {a['pool_events']} pool events, "
        f"{a['events_evaluated']} evaluated):"
    )
    lines.append(
        f"  reschedule latency  seed {a['seed_reschedule_latency'] * 1e3:8.1f} ms   "
        f"fast {a['fast_reschedule_latency'] * 1e3:8.1f} ms   "
        f"speedup {a['speedup']:.1f}x"
    )
    o = results["event_core_overhead"]
    lines.append("")
    lines.append(
        f"event core (V={o['v']}, {o['events_processed']} events dispatched): "
        f"overhead {o['overhead_fraction'] * 100:.2f}% of adaptive wall clock "
        f"(gate ≤ {MAX_EVENT_CORE_OVERHEAD * 100:.0f}%)"
    )
    c = results["closed_loop"]
    lines.append("")
    lines.append(
        f"closed loop ({c['cases']} flash-crowd cases, {c['arrivals']} arrivals): "
        f"noisy {c['noisy_seconds']:.2f}s / exact {c['exact_seconds']:.2f}s = "
        f"{c['ratio']:.2f}x (gate ≤ {MAX_CLOSED_LOOP_RATIO}x)"
    )
    f = results["flow_waves"]
    lines.append("")
    lines.append(
        f"flow waves (mincost_flow, V={f['v']}, {f['resources']} resources): "
        f"dense {f['dense_seconds'] * 1e3:.1f} ms / scalar "
        f"{f['scalar_seconds'] * 1e3:.1f} ms = {f['speedup']:.2f}x"
    )
    lines.append(
        f"  class-graph solves ({f['waves']} waves): per-task oracle "
        f"{f['oracle_solve_seconds'] * 1e3:.1f} ms / one supply node "
        f"{f['bundled_solve_seconds'] * 1e3:.1f} ms = {f['solve_speedup']:.2f}x "
        f"(gate ≥ {MIN_FLOW_SOLVE_SPEEDUP}x)"
    )
    p = results["admission_planning"]
    lines.append("")
    lines.append(
        f"admission planning (flash crowd, {p['arrivals']} arrivals, {p['offers']} offers, "
        f"{p['saturation_decided']} decided by saturation): "
        f"{p['reschedules_per_offer']:.2f} plans per offer, eager oracle "
        f"{p['oracle_reschedules_per_offer']:.2f} "
        f"(gate ≤ {MAX_ADMISSION_RESCHEDULES_PER_OFFER}); "
        f"{p['seconds']:.2f}s / oracle {p['oracle_seconds']:.2f}s"
    )
    m = results["pricing_memory"]
    lines.append("")
    lines.append(
        f"pricing memory (adaptive AHEFT, V={m['v']}, {m['resources']} resources after "
        f"{m['pool_events']} pool events): {m['pool_views_held']} pool views held, "
        f"{m['pair_cache_entries']} mirrored pairs, retained {m['retained_mib']:.1f} MiB = "
        f"{m['retained_ratio']:.2f}x one rows view (gate ≤ {MAX_PRICING_RETAINED_RATIO}x)"
    )
    g = results["structure_memory"]
    lines.append("")
    lines.append(
        "structure memory (priced sparse DAG + one HEFT plan, 20 resources):"
    )
    lines.append("       V      edges   retained   bytes/edge   × float64[|E|]")
    for row in g["rows"]:
        lines.append(
            f"  {row['v']:6d}  {row['edges']:9d}  {row['retained_mib']:6.2f} MiB  "
            f"{row['retained_bytes_per_edge']:10.1f}  {row['retained_ratio']:12.2f}x"
        )
    lines.append(
        f"  retained ratio at V={g['rows'][-1]['v']}: {g['retained_ratio']:.2f}x "
        f"(gate ≤ {MAX_STRUCTURE_RETAINED_RATIO}x); fitted bytes exponent "
        f"|E|^{g['bytes_exponent']:.2f} (gate ≤ {MAX_STRUCTURE_BYTES_EXPONENT})"
    )
    b = results["case_build"]
    lines.append("")
    lines.append(
        f"case build (random DAG, V={b['v']}, {b['edges']} edges): bulk "
        f"{b['bulk_seconds'] * 1e3:.1f} ms / scalar oracle {b['oracle_seconds'] * 1e3:.1f} ms "
        f"= {b['speedup']:.2f}x (gate ≥ {MIN_CASE_BUILD_SPEEDUP}x)"
    )
    d = results["truth_draws"]
    lines.append("")
    lines.append(
        f"truth draws ({d['pairs']} pairs per error family, "
        f"{d['kernel_passes']} kernel pass for all five): batched "
        f"{d['batched_seconds'] * 1e3:.1f} ms / one at a time {d['scalar_seconds'] * 1e3:.1f} ms "
        f"= {d['speedup']:.2f}x (gate ≥ {MIN_TRUTH_DRAW_SPEEDUP}x)"
    )
    lines.append(
        "  " + "  ".join(f"{name} {row['speedup']:.2f}x" for name, row in d["families"].items())
    )
    t = results["stream_build"]
    lines.append("")
    lines.append(
        f"stream build (default_tenants(4), {t['arrivals']} arrivals, {t['jobs']} jobs): "
        f"{t['kernel_passes']} kernel passes (gate ≤ {MAX_STREAM_BUILD_KERNEL_PASSES}), "
        f"oracle {t['oracle_kernel_passes']}; batched {t['batched_seconds'] * 1e3:.1f} ms / "
        f"per-arrival oracle {t['oracle_seconds'] * 1e3:.1f} ms = {t['speedup']:.2f}x "
        f"(gate ≥ {MIN_STREAM_BUILD_SPEEDUP}x)"
    )
    lines.append("")
    lines.append(
        "run pricing (kernel passes of one run; priced ahead at grid open vs on first read):"
    )
    lines.append("  case          workflows  columns  unread  passes  first-read passes")
    for name, row in results["run_pricing"].items():
        lines.append(
            f"  {name:12s}  {row['workflows']:9d}  {row['columns']:7d}  "
            f"{row['unread_columns']:6d}  {row['kernel_passes']:6d}  "
            f"{row['lazy_kernel_passes']:17d}"
        )
    lines.append(f"  (gate: passes ≤ {MAX_RUN_PRICING_KERNEL_PASSES} on every case)")
    lines.append("")
    lines.append(
        "placement order (AHEFT adaptive runs; best-first scan vs ordered chain, per placement):"
    )
    lines.append(
        "  case      V  placements   pool  evaluated   share  gap searches  ordered  fallbacks"
    )
    for name, row in results["placement_order"].items():
        lines.append(
            f"  {name:6s} {row['v']:5d}  {row['placements']:10d}  "
            f"{row['pool_per_placement']:5.1f}  "
            f"{row['evaluated_per_placement']:9.2f}  {row['evaluated_share']:6.3f}  "
            f"{row['gap_searches_per_placement']:12.3f}  "
            f"{row['ordered_gap_searches_per_placement']:7.3f}  {row['fallbacks']:9d}"
        )
    lines.append(f"  (gate: share ≤ {MAX_PLACEMENT_EVALUATED_SHARE} on every case)")
    s = results["scaling_series"]
    lines.append("")
    lines.append("sparse scaling series (fast kernel, 20 resources, |E| ≈ 10·V):")
    lines.append("       V      edges   static warm    µs/job   resched latency")
    for row in s["rows"]:
        lines.append(
            f"  {row['v']:6d}  {row['edges']:9d}  {row['static_warm_seconds']:10.3f}s  "
            f"{row['static_us_per_job']:8.1f}  "
            f"{row['reschedule_latency'] * 1e3:12.1f} ms"
        )
    lines.append(
        f"  fitted static-time exponent: V^{s['scaling_exponent']:.2f} "
        f"(gate ≤ {MAX_SCALING_EXPONENT})"
    )
    # quick mode does not enforce this ceiling (see check_thresholds)
    gate = (
        "informational in quick mode"
        if results.get("quick")
        else f"gate ≤ {MAX_RESCHEDULE_EXPONENT}"
    )
    lines.append(
        f"  fitted reschedule-latency exponent: "
        f"V^{loglog_exponent(s['rows'], 'reschedule_latency'):.2f} ({gate})"
    )
    return "\n".join(lines)


def check_thresholds(results: Dict[str, object]) -> None:
    """Assert the acceptance-criteria speedups.

    Schedule bit-identity is always asserted (inside the measure functions);
    the wall-clock floors are only *enforced* on full runs — the --quick CI
    smoke run prints them instead, because a throttled shared runner can
    dip below a floor with no code defect.
    """
    largest = results["static_heft"][-1]
    aheft = results["adaptive_aheft"]
    overhead = results["event_core_overhead"]
    # the overhead gate is a same-run ratio, robust to runner throttling, so
    # it is enforced in quick mode too
    assert overhead["overhead_fraction"] <= MAX_EVENT_CORE_OVERHEAD, (
        f"event-core dispatch overhead {overhead['overhead_fraction'] * 100:.1f}% "
        f"of adaptive wall clock exceeds the "
        f"{MAX_EVENT_CORE_OVERHEAD * 100:.0f}% ceiling"
    )
    # so is the closed-loop ratio
    closed_loop = results["closed_loop"]
    assert closed_loop["ratio"] <= MAX_CLOSED_LOOP_RATIO, (
        f"noisy shared-grid runs take {closed_loop['ratio']:.2f}x the wall clock "
        f"of accurate-estimate runs, above the {MAX_CLOSED_LOOP_RATIO}x ceiling"
    )
    # and the class-graph solve ratio
    flow_waves = results["flow_waves"]
    assert flow_waves["solve_speedup"] >= MIN_FLOW_SOLVE_SPEEDUP, (
        f"the one-supply-node class graph solves the flow waves only "
        f"{flow_waves['solve_speedup']:.2f}x faster than the per-task oracle, "
        f"below the {MIN_FLOW_SOLVE_SPEEDUP}x floor"
    )
    # and the memory the cost model keeps, a ratio of two sizes
    pricing_memory = results["pricing_memory"]
    assert pricing_memory["retained_ratio"] <= MAX_PRICING_RETAINED_RATIO, (
        f"the cost model holds {pricing_memory['retained_ratio']:.2f}x one rows view "
        f"at the end of a growing-pool run, above the {MAX_PRICING_RETAINED_RATIO}x ceiling"
    )
    # and what a priced DAG and its plan keep per edge, a ratio of sizes
    # and a fitted exponent
    structure_memory = results["structure_memory"]
    assert structure_memory["retained_ratio"] <= MAX_STRUCTURE_RETAINED_RATIO, (
        f"a priced DAG and one HEFT plan keep {structure_memory['retained_ratio']:.2f}x "
        f"a float64 array of its edges, above the {MAX_STRUCTURE_RETAINED_RATIO}x ceiling"
    )
    assert structure_memory["bytes_exponent"] <= MAX_STRUCTURE_BYTES_EXPONENT, (
        f"retained bytes grow as |E|^{structure_memory['bytes_exponent']:.2f}, above "
        f"the |E|^{MAX_STRUCTURE_BYTES_EXPONENT} ceiling"
    )
    # and the bulk case build over the scalar one, a same-run ratio
    case_build = results["case_build"]
    assert case_build["speedup"] >= MIN_CASE_BUILD_SPEEDUP, (
        f"the bulk case build is only {case_build['speedup']:.2f}x faster than the "
        f"scalar oracle, below the {MIN_CASE_BUILD_SPEEDUP}x floor"
    )
    # and the batched truth draws over one pair at a time, a same-run ratio
    truth_draws = results["truth_draws"]
    assert truth_draws["speedup"] >= MIN_TRUTH_DRAW_SPEEDUP, (
        f"batched truth draws are only {truth_draws['speedup']:.2f}x faster than one "
        f"pair at a time, below the {MIN_TRUTH_DRAW_SPEEDUP}x floor"
    )
    # and the batched stream build: its kernel passes, a count, and its
    # speedup over the per-arrival oracle, a same-run ratio
    stream_build = results["stream_build"]
    assert stream_build["kernel_passes"] <= MAX_STREAM_BUILD_KERNEL_PASSES, (
        f"one stream build makes {stream_build['kernel_passes']} generator-kernel "
        f"passes, above the {MAX_STREAM_BUILD_KERNEL_PASSES} ceiling"
    )
    assert stream_build["speedup"] >= MIN_STREAM_BUILD_SPEEDUP, (
        f"the batched stream build is only {stream_build['speedup']:.2f}x faster than "
        f"the per-arrival oracle, below the {MIN_STREAM_BUILD_SPEEDUP}x floor"
    )
    # and the kernel passes a run makes to price its workflows, a count
    for name, row in results["run_pricing"].items():
        assert row["kernel_passes"] <= MAX_RUN_PRICING_KERNEL_PASSES, (
            f"the {name} run makes {row['kernel_passes']} pricing kernel passes, above "
            f"the {MAX_RUN_PRICING_KERNEL_PASSES} ceiling"
        )
    # and the share of the pool the best-first scan evaluates, a count
    for name, row in results["placement_order"].items():
        assert row["evaluated_share"] <= MAX_PLACEMENT_EVALUATED_SHARE, (
            f"the best-first scan evaluates {row['evaluated_share']:.3f} of the pool per "
            f"placement on the {name} case, above the {MAX_PLACEMENT_EVALUATED_SHARE} ceiling"
        )
    # and the plans admission control makes per offer, a count
    admission_planning = results["admission_planning"]
    assert (
        admission_planning["reschedules_per_offer"] <= MAX_ADMISSION_RESCHEDULES_PER_OFFER
    ), (
        f"admission control makes {admission_planning['reschedules_per_offer']:.2f} "
        f"tentative plans per offer, above the "
        f"{MAX_ADMISSION_RESCHEDULES_PER_OFFER} ceiling"
    )
    scaling = results["scaling_series"]
    if results.get("quick"):
        print(
            f"(quick mode: speedups {largest['speedup']:.1f}x HEFT / "
            f"{aheft['speedup']:.1f}x AHEFT, scaling exponent "
            f"V^{scaling['scaling_exponent']:.2f} — informational only; the "
            f"exponent is gated against the committed baseline by "
            f"`repro compare`)"
        )
        return
    assert largest["speedup"] >= MIN_HEFT_SPEEDUP_AT_1000, (
        f"static HEFT speedup {largest['speedup']:.1f}x at V={largest['v']} "
        f"below the {MIN_HEFT_SPEEDUP_AT_1000}x floor"
    )
    assert aheft["speedup"] >= MIN_AHEFT_SPEEDUP, (
        f"adaptive AHEFT speedup {aheft['speedup']:.1f}x below the "
        f"{MIN_AHEFT_SPEEDUP}x floor"
    )
    assert scaling["scaling_exponent"] <= MAX_SCALING_EXPONENT, (
        f"warm static HEFT scales as V^{scaling['scaling_exponent']:.2f} on "
        f"the sparse family, above the V^{MAX_SCALING_EXPONENT} ceiling"
    )
    reschedule_exponent = loglog_exponent(scaling["rows"], "reschedule_latency")
    assert reschedule_exponent <= MAX_RESCHEDULE_EXPONENT, (
        f"adaptive reschedule latency scales as V^{reschedule_exponent:.2f} on "
        f"the sparse family, above the V^{MAX_RESCHEDULE_EXPONENT} ceiling"
    )


def write_tracking_json(results: Dict[str, object]) -> Optional[Path]:
    """Persist the headline numbers to the top-level BENCH_kernel.json.

    Quick-mode numbers (smaller DAGs, fewer events) are not comparable to
    the full run, so they never touch the cross-PR ledger.
    """
    if results.get("quick"):
        return None
    path = REPO_ROOT / "BENCH_kernel.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def test_kernel_scaling(benchmark):
    results = run_once(benchmark, kernel_scaling_results)
    publish("kernel_scaling", render(results), data=results)
    write_tracking_json(results)
    check_thresholds(results)


def main(argv: List[str]) -> int:
    unknown = [arg for arg in argv if arg != "--quick"]
    if unknown:
        print(
            f"usage: bench_kernel_scaling.py [--quick]  (unknown: {unknown})",
            file=sys.stderr,
        )
        return 2
    quick = "--quick" in argv
    results = kernel_scaling_results(quick=quick)
    publish("kernel_scaling", render(results), data=results)
    path = write_tracking_json(results)
    check_thresholds(results)
    if path is not None:
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
