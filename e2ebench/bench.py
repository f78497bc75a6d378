"""The benchmark's runner: a fixed case list, timed on host-normalised
clocks, checked, and reduced to the metrics ``BENCHMARK.json`` names.

One process, one thread, closed loop.  The seed fixes the case list and
``seconds`` fixes how many cases it holds, through each workload's
nominal iteration time — a constant, so the list never depends on how
fast the host is.  A warm-up iteration of the first case runs first and
enters no statistic.  Between iterations the previous inputs and results
are dropped and the garbage is collected; the collector stays on inside
the timed regions, because users pay for it.

Timings are aggregated per case first, then across cases (the median),
so one case caught by a burst of load on the host cannot drag a metric.

``trace=False`` reports the end-to-end metrics.  ``trace=True`` runs the
cases with the layer hooks of :mod:`tracing` installed, repeats the first
case untraced afterwards, and reports the per-layer metrics after a
self-test of the trace.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import hostclock
import stats
import tracing
from workloads import WORKLOADS, CheckFailed, ReplanProbe, case_seeds

__all__ = ["WORKLOADS", "run_benchmark", "case_count"]

#: relative tolerance of the traced self-time sum against the traced duration
SELF_TIME_TOLERANCE = 0.005

#: (name, unit, better) of every end-to-end metric (``--trace 0``)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("replan_ms.mean", "ms", "lower"),
    ("replan_ms.tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("makespan_sim", "sim", "lower"),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``)
PER_LAYER = (
    ("generators.dag_s", "s", "lower"),
    ("generators.jobs", "count", "lower"),
    ("generators.edges", "count", "lower"),
    ("workflow.pricing_s", "s", "lower"),
    ("workflow.cost_views_s", "s", "lower"),
    ("workflow.cost_views_calls", "count", "lower"),
    ("analysis.ranks_s", "s", "lower"),
    ("analysis.ranks_calls", "count", "lower"),
    ("scheduling.schedule_s", "s", "lower"),
    ("scheduling.reschedule_s", "s", "lower"),
    ("scheduling.reschedule_calls", "count", "lower"),
    ("scheduling.adopted_frac", "ratio", "higher"),
    ("flow.assign_s", "s", "lower"),
    ("flow.solve_s", "s", "lower"),
    ("flow.solve_calls", "count", "lower"),
    ("core.repair_s", "s", "lower"),
    ("core.repair_calls", "count", "lower"),
    ("core.truth_replay_s", "s", "lower"),
    ("core.loop_self_s", "s", "lower"),
    ("core.offers", "count", "lower"),
    ("core.admit_frac", "ratio", "higher"),
    ("core.deferrals", "count", "lower"),
    ("core.admission_s", "s", "lower"),
    ("core.plan_arrival_s", "s", "lower"),
    ("core.busy_view_s", "s", "lower"),
    ("core.handle_event_s", "s", "lower"),
    ("resources.pool_query_s", "s", "lower"),
    ("resources.pool_query_calls", "count", "lower"),
    ("simulation.events", "count", "lower"),
    ("simulation.dispatch_self_s", "s", "lower"),
    ("scenarios.materialize_s", "s", "lower"),
    ("workload.arrivals_s", "s", "lower"),
    ("quality.wasted_work_sim", "sim", "lower"),
    ("quality.stretch_tail_sim", "ratio", "lower"),
    ("quality.rejected_frac_sim", "ratio", "lower"),
    ("tracing.overhead_frac", "ratio", "lower"),
    ("tracing.unattributed_s", "s", "lower"),
    ("host.reference_s", "s", "lower"),
    ("host.raw_setup_s", "s", "lower"),
    ("host.raw_run_s", "s", "lower"),
)

#: per-layer metric -> (tracer layer, "self" seconds or "calls")
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "generators.dag_s": ("generators.dag", "self"),
    "workflow.pricing_s": ("workflow.pricing", "self"),
    "workflow.cost_views_s": ("workflow.cost_views", "self"),
    "workflow.cost_views_calls": ("workflow.cost_views", "calls"),
    "analysis.ranks_s": ("analysis.ranks", "self"),
    "analysis.ranks_calls": ("analysis.ranks", "calls"),
    "scheduling.schedule_s": ("scheduling.schedule", "self"),
    "scheduling.reschedule_s": ("scheduling.reschedule", "self"),
    "scheduling.reschedule_calls": ("scheduling.reschedule", "calls"),
    "flow.assign_s": ("flow.assign", "self"),
    "flow.solve_s": ("flow.solve", "self"),
    "flow.solve_calls": ("flow.solve", "calls"),
    "core.repair_s": ("core.repair", "self"),
    "core.repair_calls": ("core.repair", "calls"),
    "core.truth_replay_s": ("core.truth_replay", "self"),
    "core.admission_s": ("core.admission", "self"),
    "core.plan_arrival_s": ("core.plan_arrival", "self"),
    "core.busy_view_s": ("core.busy_view", "self"),
    "core.handle_event_s": ("core.handle_event", "self"),
    "resources.pool_query_s": ("resources.pool_query", "self"),
    "resources.pool_query_calls": ("resources.pool_query", "calls"),
    "simulation.events": (tracing.HANDLER_LAYER, "calls"),
    "simulation.dispatch_self_s": ("simulation.dispatch", "self"),
    "scenarios.materialize_s": ("scenarios.materialize", "self"),
    "workload.arrivals_s": ("workload.arrivals", "self"),
}

#: the adaptive loop's own code: the loop/executor bodies and the event
#: handlers they post
LOOP_LAYERS = ("core.loop", tracing.HANDLER_LAYER)

#: the benchmark's root spans: time no hooked layer claimed
ROOT_LAYERS = ("bench.setup", "bench.run")


def case_count(workload, seconds: float) -> int:
    """Timed cases of one run: the warm-up plus the cases fill ``seconds``
    at the workload's nominal iteration time."""
    return max(2, round(seconds / workload.nominal_iteration_s) - 1)


@dataclass
class Iteration:
    case_seed: int
    setup_raw_s: float
    run_raw_s: float
    #: reference timings before setup, between setup and run, after run
    references: Tuple[float, float, float]
    replans_raw_s: List[float]
    outcome: object
    sizes: Dict[str, int]
    #: traced only: ((setup self_s, calls), (run self_s, calls))
    layers: Optional[tuple] = None

    @property
    def setup_factor(self) -> float:
        return hostclock.normalise(1.0, self.references[0], self.references[1])

    @property
    def run_factor(self) -> float:
        return hostclock.normalise(1.0, self.references[1], self.references[2])

    @property
    def setup_s(self) -> float:
        return self.setup_raw_s * self.setup_factor

    @property
    def run_s(self) -> float:
        return self.run_raw_s * self.run_factor

    @property
    def replans_s(self) -> List[float]:
        factor = self.run_factor
        return [sample * factor for sample in self.replans_raw_s]


@dataclass
class Session:
    """One process's iterations: attempted and failed, with the reasons,
    and the last reference timing, which the next iteration shares."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    reference_s: Optional[float] = None

    def fail(self, message: str) -> None:
        self.failed = min(self.failed + 1, self.attempted)
        self.problems.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)


def run_iteration(workload, case_seed: int, tracer: Optional[tracing.Tracer] = None,
                  ref_before: Optional[float] = None) -> Iteration:
    """Set up, run and check one case, bracketed by reference timings.

    ``ref_before`` is the previous iteration's closing reference, when
    there is one: only the check and the collection lie between them.
    """
    if ref_before is None:
        ref_before = hostclock.measure_reference()
    gc.collect()
    probe = ReplanProbe()
    start = time.perf_counter()
    if tracer is None:
        inputs = workload.setup(case_seed)
    else:
        inputs = tracer.call("bench.setup", workload.setup, case_seed)
    setup_raw = time.perf_counter() - start
    setup_layers = tracer.take() if tracer is not None else None
    ref_between = hostclock.measure_reference()
    start = time.perf_counter()
    if tracer is None:
        result = workload.run(inputs, probe)
    else:
        result = tracer.call("bench.run", workload.run, inputs, probe)
    run_raw = time.perf_counter() - start
    run_layers = tracer.take() if tracer is not None else None
    ref_after = hostclock.measure_reference()
    outcome = workload.check(inputs, result)
    return Iteration(
        case_seed=case_seed,
        setup_raw_s=setup_raw,
        run_raw_s=run_raw,
        references=(ref_before, ref_between, ref_after),
        replans_raw_s=probe.samples,
        outcome=outcome,
        sizes=workload.sizes(inputs),
        layers=(setup_layers, run_layers) if tracer is not None else None,
    )


def attempt(session: Session, workload, case_seed: int, tracer=None,
            label: str = "") -> Optional[Iteration]:
    """One iteration; an exception or a failed check counts as failed."""
    session.attempted += 1
    reference, session.reference_s = session.reference_s, None
    try:
        iteration = run_iteration(workload, case_seed, tracer, reference)
    except CheckFailed as exc:
        session.fail(str(exc))
        return None
    except Exception:
        session.fail(f"case {case_seed} raised:\n{traceback.format_exc()}")
        return None
    session.reference_s = iteration.references[2]
    print(
        f"  {label:<9} case {case_seed:>10}  setup {iteration.setup_s:7.3f} s"
        f"  run {iteration.run_s:7.3f} s  (raw {iteration.setup_raw_s:.3f}/"
        f"{iteration.run_raw_s:.3f}, reference {iteration.references[1] * 1e3:.1f} ms)"
        f"  makespan {iteration.outcome.makespan:.1f}",
        file=sys.stderr,
    )
    return iteration


def check_repeat(session: Session, first: Optional[Iteration], repeat: Optional[Iteration],
                 what: str) -> None:
    """A repeat of a case must reproduce its simulated metrics exactly."""
    if first is None or repeat is None:
        return
    if repeat.outcome.fingerprint != first.outcome.fingerprint:
        session.fail(f"{what}: case {first.case_seed} did not reproduce its simulated metrics")


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(iterations: List[Iteration]) -> Dict[str, float]:
    replanned = [it.replans_s for it in iterations if it.replans_s]
    return {
        "setup_s": statistics.median(it.setup_s for it in iterations),
        "run_s": statistics.median(it.run_s for it in iterations),
        "replan_ms.mean": 1e3 * statistics.median(statistics.fmean(r) for r in replanned),
        "replan_ms.tail": 1e3 * statistics.median(stats.tail_percentile(r)[1] for r in replanned),
        "peak_rss_mb": peak_rss_mb(),
        "makespan_sim": statistics.fmean(it.outcome.makespan for it in iterations),
    }


def _phase_layers(iteration: Iteration) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Host-normalised self seconds and call counts of one traced case."""
    (setup_self, setup_calls), (run_self, run_calls) = iteration.layers
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for phase_self, phase_calls, factor in (
        (setup_self, setup_calls, iteration.setup_factor),
        (run_self, run_calls, iteration.run_factor),
    ):
        for layer, seconds in phase_self.items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds * factor
        for layer, count in phase_calls.items():
            calls[layer] = calls.get(layer, 0) + count
    return self_s, calls


def layer_metrics(traced: List[Iteration], overhead_frac: float,
                  every: List[Iteration]) -> Dict[str, float]:
    """Per-layer metrics: per-case means over the traced cases."""
    per_case: List[Dict[str, float]] = []
    for iteration in traced:
        self_s, calls = _phase_layers(iteration)
        outcome = iteration.outcome
        values = {
            name: (self_s if kind == "self" else calls).get(layer, 0)
            for name, (layer, kind) in LAYER_METRICS.items()
        }
        values["core.loop_self_s"] = sum(self_s.get(layer, 0.0) for layer in LOOP_LAYERS)
        values["tracing.unattributed_s"] = sum(self_s.get(layer, 0.0) for layer in ROOT_LAYERS)
        values["generators.jobs"] = iteration.sizes["jobs"]
        values["generators.edges"] = iteration.sizes["edges"]
        values["core.offers"] = outcome.offered
        values["core.deferrals"] = outcome.deferrals
        values["quality.wasted_work_sim"] = outcome.wasted_work
        per_case.append(values)
    metrics = {name: statistics.fmean(case[name] for case in per_case) for name in per_case[0]}

    outcomes = [it.outcome for it in traced]
    decisions = sum(o.decisions for o in outcomes)
    offered = sum(o.offered for o in outcomes)
    stretches = [s for o in outcomes for s in o.stretches]
    metrics["scheduling.adopted_frac"] = (
        sum(o.adopted for o in outcomes) / decisions if decisions else 0.0
    )
    metrics["core.admit_frac"] = sum(o.admitted for o in outcomes) / offered if offered else 0.0
    arrivals = sum(o.arrivals for o in outcomes)
    metrics["quality.rejected_frac_sim"] = (
        sum(o.rejected for o in outcomes) / arrivals if arrivals else 0.0
    )
    metrics["quality.stretch_tail_sim"] = stats.tail_percentile(stretches)[1] if stretches else 0.0
    metrics["tracing.overhead_frac"] = overhead_frac
    metrics["host.reference_s"] = statistics.median(r for it in every for r in it.references)
    metrics["host.raw_setup_s"] = statistics.median(it.setup_raw_s for it in every)
    metrics["host.raw_run_s"] = statistics.median(it.run_raw_s for it in every)
    return metrics


def self_test(session: Session, workload, traced: List[Iteration], metrics: Dict[str, float]) -> None:
    """The trace accounts for every traced second and sees each layer the
    workload is expected to exercise."""
    for iteration in traced:
        for phase, raw in zip(iteration.layers, (iteration.setup_raw_s, iteration.run_raw_s)):
            total = sum(phase[0].values())
            if abs(total - raw) > SELF_TIME_TOLERANCE * raw:
                session.fail(
                    f"trace self times sum to {total:.6f} s, the traced phase took {raw:.6f} s"
                )
    for name in workload.expected_layers:
        if not metrics.get(name):
            session.fail(f"{workload.name}: per-layer metric {name} is zero")


def run_benchmark(workload, *, seed: int, seconds: float, trace: bool) -> Optional[dict]:
    """Run one benchmark process's worth of iterations; ``None`` when no
    iteration produced a measurement."""
    seeds = case_seeds(workload.name, seed, case_count(workload, seconds))
    session = Session()
    print(f"{workload.name}: seed {seed}, {len(seeds)} cases, trace {int(trace)}", file=sys.stderr)

    warmup = attempt(session, workload, seeds[0], label="warm-up")
    if not trace:
        timed = [attempt(session, workload, case_seed, label="timed") for case_seed in seeds]
        check_repeat(session, warmup, timed[0], "repeat")
        measured = [it for it in timed if it is not None]
        if not measured:
            return None
        metrics = end_to_end_metrics(measured)
    else:
        tracer = tracing.Tracer()
        traced_seeds = seeds[:-1]
        with tracing.Hooks(tracer):
            traced = [
                attempt(session, workload, case_seed, tracer, label="traced")
                for case_seed in traced_seeds
            ]
        untraced = attempt(session, workload, seeds[0], label="untraced")
        check_repeat(session, warmup, traced[0], "traced repeat")
        check_repeat(session, warmup, untraced, "untraced after traced")
        measured = [it for it in traced if it is not None]
        if not measured:
            return None
        overhead = (
            traced[0].run_s / untraced.run_s - 1.0
            if traced[0] is not None and untraced is not None
            else 0.0
        )
        every = [it for it in [warmup, *traced, untraced] if it is not None]
        metrics = layer_metrics(measured, overhead, every)
        self_test(session, workload, measured, metrics)

    sizes = (warmup or measured[0]).sizes
    print(f"{workload.name}: first case sizes {sizes}", file=sys.stderr)
    raw = {
        "setup_s": statistics.median(it.setup_raw_s for it in measured),
        "run_s": statistics.median(it.run_raw_s for it in measured),
        "cases": [
            [it.setup_raw_s, it.run_raw_s, it.references, it.replans_raw_s] for it in measured
        ],
    }
    print(f"{hostclock.RAW_PREFIX}{json.dumps(raw)}", file=sys.stderr)
    return {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _ in (PER_LAYER if trace else END_TO_END)
        },
    }
