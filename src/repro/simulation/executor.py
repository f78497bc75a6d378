"""Grid executors built on the discrete-event kernel.

Two execution strategies are provided, mirroring the paper's experiment
design (§4.1):

* :class:`StaticScheduleExecutor` executes a planner-produced schedule.
  When a job finishes, its output file is transmitted *immediately* to the
  resources where its successors are scheduled (assumption 2 for static
  strategies).  A job starts once its resource has worked through the jobs
  scheduled before it and all its input files have arrived.  Actual job
  durations come from an ``actual_costs`` model, which defaults to the
  Planner's estimates (assumption 1: accurate estimation) but can be a
  perturbed model for performance-variance studies.

* :class:`JustInTimeExecutor` implements the dynamic strategy: a job is
  mapped only when it becomes ready, by a batch heuristic such as Min-Min,
  using whatever resources exist at that moment; input transfers begin only
  after the mapping decision.

Departure semantics
-------------------
The paper's evaluation only exercises resource *additions*; the executors
additionally honour departures (``Resource.available_until``, produced by
``leave_fraction`` dynamics and the scenario engine) end to end:

* a **running** job on a departing resource is *killed* at the departure
  instant: its partial execution is recorded as wasted work
  (:meth:`~repro.simulation.trace.ExecutionTrace.wasted_work`) and the
  kill in :attr:`~repro.simulation.trace.ExecutionTrace.kills`, and the
  job is re-executed;
* a job whose scheduled resource departed **before it started** is
  *stranded* and likewise re-dispatched;
* a job finishing exactly at the departure instant completes normally.

How the re-execution happens is strategy-specific.  The static executor
applies its ``departure_policy``: ``"failover"`` (default) re-runs killed
and stranded jobs just-in-time on the surviving resource that can finish
them earliest — the honest baseline behaviour of grid middleware that
resubmits failed jobs without replanning — while ``"fail"`` raises
:class:`SimulationError`, for studies where a static plan losing a
resource is a hard failure.  The just-in-time executor simply returns the
job to the ready set and maps it again at the departure instant.

Data produced by a finished job remains retrievable after its resource
departs (outputs were already shipped under assumption 2; re-fetches are
priced with the same communication model).

Performance variance
--------------------
An optional ``perf_profile`` (see
:class:`~repro.scenarios.base.PerformanceProfile`) scales *actual* job
durations by the executing resource's slowdown factor at the job's start
time: ``duration = actual_costs.computation_cost(job, r) · factor(r,
start)``.  A job's speed is frozen at dispatch; factor changes affect jobs
started after the change.

Estimate error and the Performance Monitor
------------------------------------------
``actual_costs`` is where the uncertainty engine plugs in: passing a
:class:`~repro.workflow.costs.PerturbedCostModel` (an
:class:`~repro.workflow.costs.ErrorModel` sampled around the estimates)
makes the executor replay a stochastic ground truth while the schedule
being executed was still planned on the unperturbed estimates.  The
optional ``history`` parameter plays the paper's Performance Monitor:
every completed execution is recorded into the
:class:`~repro.core.history.PerformanceHistoryRepository` as
``(operation, resource, observed duration)``, feeding the Predictor's
re-estimation on subsequent (re)planning passes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.resources.pool import ResourcePool
from repro.scheduling.base import Schedule, TIME_EPS
from repro.scheduling.minmin import MinMinScheduler
from repro.simulation.event_core import Event, EventCore, EventKind, SimulationError
from repro.simulation.trace import ExecutionTrace, TransferRecord
from repro.workflow.costs import CostModel
from repro.workflow.dag import Workflow

__all__ = ["StaticScheduleExecutor", "JustInTimeExecutor"]

#: Event priority of departure handlers: after same-time job finishes
#: (priority 0), so a job finishing exactly at the departure completes.
_DEPARTURE_PRIORITY = 1


class StaticScheduleExecutor:
    """Execute a static schedule event-by-event on the simulation kernel.

    Parameters
    ----------
    workflow, estimated_costs:
        The DAG and the cost model the schedule was planned with — used for
        file-transfer durations.
    schedule:
        The plan to execute.  Every workflow job must be assigned.
    pool:
        Resource pool; jobs can only run once their resource has joined,
        and departures kill/strand jobs as described in the module
        docstring.
    actual_costs:
        Model providing the *actual* job durations.  Defaults to
        ``estimated_costs`` (the paper's accurate-estimation assumption).
    perf_profile:
        Optional per-resource slowdown factors over time; scales actual
        durations at dispatch.
    departure_policy:
        ``"failover"`` (default) or ``"fail"`` — see the module docstring.
    """

    def __init__(
        self,
        workflow: Workflow,
        estimated_costs: CostModel,
        schedule: Schedule,
        pool: ResourcePool,
        *,
        actual_costs: Optional[CostModel] = None,
        strategy_name: str = "static",
        perf_profile=None,
        departure_policy: str = "failover",
        history=None,
    ) -> None:
        missing = [job for job in workflow.jobs if job not in schedule]
        if missing:
            raise ValueError(f"schedule does not cover jobs: {missing}")
        if departure_policy not in ("failover", "fail"):
            raise ValueError(
                f"unknown departure_policy {departure_policy!r}; "
                "choose 'failover' or 'fail'"
            )
        self.workflow = workflow
        self.estimated_costs = estimated_costs
        self.actual_costs = actual_costs or estimated_costs
        self.schedule = schedule
        self.pool = pool
        self.strategy_name = strategy_name
        self.perf_profile = perf_profile
        self.departure_policy = departure_policy
        self.history = history

    # ------------------------------------------------------------------
    def _duration(self, job: str, rid: str, start: float) -> float:
        duration = self.actual_costs.computation_cost(job, rid)
        if self.perf_profile is not None:
            duration *= self.perf_profile.factor_at(rid, start)
        return duration

    def _observe(self, job: str, rid: str, start: float, finish: float) -> None:
        """Report one completed execution to the Performance Monitor.

        The observed duration is normalised by the (known) performance
        factor at dispatch and stored with the Planner's prior estimate, so
        ratio-mode re-estimation sees the pure estimate error — the same
        semantics as the adaptive loop's monitor.
        """
        if self.history is None:
            return
        duration = finish - start
        if self.perf_profile is not None:
            factor = self.perf_profile.factor_at(rid, start)
            if factor != 1.0:
                duration /= factor
        self.history.record_execution(
            self.workflow.job(job).operation,
            rid,
            duration,
            job_id=job,
            finished_at=finish,
            estimated=self.estimated_costs.computation_cost(job, rid),
        )

    def run(self, *, core: Optional[EventCore] = None) -> ExecutionTrace:
        """Simulate the execution and return its trace."""
        engine = core or EventCore()
        trace = ExecutionTrace(
            workflow_name=self.workflow.name, strategy=self.strategy_name
        )

        # Duplicate copies (duplication-based strategies) are first-class
        # execution units: they occupy their booked slot in the per-resource
        # order, re-run their job's computation, and provide its output as
        # an additional data source — exactly what the plan booked its
        # consumers against.  A duplicate lost to a departure is simply
        # dropped (never failed over): the primary copy still guarantees
        # completion, consumers just wait for the slower source.
        duplicates = self.schedule.duplicates
        dup_preds: List[Tuple[str, ...]] = [
            tuple(self.workflow.predecessors(d.job_id)) for d in duplicates
        ]
        dup_started: Set[int] = set()
        dup_finished: Set[int] = set()
        #: (producer, dup index) -> earliest arrival of the producer's data
        #: on the duplicate's resource
        dup_arrivals: Dict[Tuple[str, int], float] = {}

        # per-resource execution order = schedule order by start time; units
        # are primary job ids (str) or duplicate indices (int)
        order_on_resource: Dict[str, List[object]] = {}
        units_by_resource: Dict[str, List[Tuple[float, float, str, object]]] = {}
        for assignment in self.schedule:
            units_by_resource.setdefault(assignment.resource_id, []).append(
                (assignment.start, assignment.finish, assignment.job_id, assignment.job_id)
            )
        for index, duplicate in enumerate(duplicates):
            units_by_resource.setdefault(duplicate.resource_id, []).append(
                (duplicate.start, duplicate.finish, duplicate.job_id, index)
            )
        for rid in sorted(units_by_resource):
            entries = sorted(units_by_resource[rid], key=lambda e: e[:3])
            order_on_resource[rid] = [entry[3] for entry in entries]
        next_index: Dict[str, int] = {rid: 0 for rid in order_on_resource}
        resource_free: Dict[str, float] = {}
        for rid in order_on_resource:
            if rid not in self.pool:
                raise ValueError(f"schedule uses unknown resource {rid!r}")
            resource_free[rid] = self.pool.resource(rid).available_from

        # data availability per edge: (producer, consumer) -> time at which the
        # edge's data is available on the consumer's scheduled resource.  The
        # data matrix is edge-specific (paper §3.4), so each dependency has
        # its own transfer.
        arrivals: Dict[Tuple[str, str], float] = {}
        started: Set[str] = set()
        finished: Set[str] = set()
        #: actual (resource, finish) of completed jobs, for failover re-fetches
        completed_on: Dict[str, Tuple[str, float]] = {}
        #: running job -> (finish event, resource, start)
        in_flight: Dict[str, Tuple[Event, str, float]] = {}
        #: jobs needing just-in-time failover, in strand/kill order
        failover_queue: List[str] = []
        departed: Set[str] = set()

        def data_ready(job: str, now: float) -> bool:
            for pred in self.workflow.predecessors(job):
                when = arrivals.get((pred, job))
                if when is None or when > now + TIME_EPS:
                    return False
            return True

        def dup_data_ready(index: int, now: float) -> bool:
            for pred in dup_preds[index]:
                when = dup_arrivals.get((pred, index))
                if when is None or when > now + TIME_EPS:
                    return False
            return True

        def launch(job: str, rid: str, start: float) -> None:
            duration = self._duration(job, rid, start)
            finish = start + duration
            started.add(job)
            resource_free[rid] = finish
            event = engine.post(
                finish,
                lambda j=job, r=rid, s=start, f=finish: on_finish(j, r, s, f),
                kind=EventKind.COMPLETION,
                label=f"finish:{job}",
            )
            in_flight[job] = (event, rid, start)

        def launch_dup(index: int, rid: str, start: float) -> None:
            job = duplicates[index].job_id
            duration = self._duration(job, rid, start)
            finish = start + duration
            dup_started.add(index)
            resource_free[rid] = finish
            event = engine.post(
                finish,
                lambda i=index, r=rid, s=start, f=finish: on_dup_finish(i, r, s, f),
                kind=EventKind.COMPLETION,
                label=f"finish-dup:{job}",
            )
            in_flight[("dup", index)] = (event, rid, start)

        def try_dispatch() -> None:
            now = engine.now
            for rid, order in order_on_resource.items():
                if rid in departed:
                    continue
                idx = next_index[rid]
                if idx >= len(order):
                    continue
                unit = order[idx]
                if resource_free[rid] > now + TIME_EPS:
                    continue
                # not joined yet, or departing at this very instant — the
                # departure handler will strand the remaining order
                if not self.pool.resource(rid).is_available_at(now):
                    continue
                if isinstance(unit, int):
                    if not dup_data_ready(unit, now):
                        continue
                    next_index[rid] += 1
                    launch_dup(unit, rid, max(now, resource_free[rid]))
                    continue
                if unit in started:
                    continue
                if not data_ready(unit, now):
                    continue
                next_index[rid] += 1
                launch(unit, rid, max(now, resource_free[rid]))
            try_failover()

        def try_failover() -> None:
            """Re-dispatch killed/stranded jobs just-in-time on survivors."""
            now = engine.now
            progress = True
            while failover_queue and progress:
                progress = False
                for job in list(failover_queue):
                    preds = self.workflow.predecessors(job)
                    if any(pred not in finished for pred in preds):
                        continue
                    survivors = [
                        rid for rid in self.pool.available_at(now) if rid not in departed
                    ]
                    if not survivors:
                        raise SimulationError(
                            f"no resources left to fail {job!r} over to at {now}"
                        )
                    # earliest-finish placement: inputs re-fetched from the
                    # producers' actual locations at dispatch time.
                    best: Optional[Tuple[float, float, str]] = None
                    for rid in survivors:
                        ready = max(now, resource_free.get(rid, 0.0),
                                    self.pool.resource(rid).available_from)
                        for pred in preds:
                            src, pred_finish = completed_on[pred]
                            transfer = self.estimated_costs.communication_cost(
                                pred, job, src, rid
                            )
                            ready = max(ready, max(pred_finish, now) + transfer)
                        finish = ready + self._duration(job, rid, ready)
                        if best is None or finish < best[0] - TIME_EPS:
                            best = (finish, ready, rid)
                    assert best is not None
                    _, start, rid = best
                    for pred in preds:
                        src, pred_finish = completed_on[pred]
                        transfer = self.estimated_costs.communication_cost(
                            pred, job, src, rid
                        )
                        if transfer > 0:
                            trace.record_transfer(
                                TransferRecord(
                                    pred, job, src, rid, max(pred_finish, now),
                                    max(pred_finish, now) + transfer,
                                )
                            )
                    failover_queue.remove(job)
                    if start <= now + TIME_EPS:
                        launch(job, rid, start)
                    else:
                        # the input re-fetch is still in flight: the target
                        # stays free for its own scheduled work until the
                        # data lands, then the job starts (or re-queues if
                        # the target departed in the meantime)
                        def arrive(j=job, r=rid):
                            at = engine.now
                            if r in departed or not self.pool.resource(r).is_available_at(at):
                                failover_queue.append(j)
                                try_failover()
                                return
                            launch(j, r, max(at, resource_free.get(r, 0.0)))

                        engine.post(
                            start,
                            arrive,
                            kind=EventKind.TRANSFER,
                            label=f"failover:{job}",
                        )
                    progress = True

        def ship_to_consumer_dups(producer: str, src: str, finish: float) -> None:
            """Feed a finished copy of ``producer`` to waiting duplicates."""
            for index, duplicate in enumerate(duplicates):
                if index in dup_started or index in dup_finished:
                    continue
                if producer not in dup_preds[index]:
                    continue
                target = duplicate.resource_id
                if target in departed:
                    continue
                transfer = self.estimated_costs.communication_cost(
                    producer, duplicate.job_id, src, target
                )
                arrival = finish + transfer
                key = (producer, index)
                current = dup_arrivals.get(key)
                if current is None or arrival < current - TIME_EPS:
                    dup_arrivals[key] = arrival
                    if arrival > engine.now + TIME_EPS:
                        engine.post(
                            arrival,
                            try_dispatch,
                            kind=EventKind.TRANSFER,
                            label=f"arrival:{producer}->dup",
                        )

        def on_finish(job: str, rid: str, start: float, finish: float) -> None:
            finished.add(job)
            in_flight.pop(job, None)
            completed_on[job] = (rid, finish)
            trace.record_job(job, rid, start, finish)
            self._observe(job, rid, start, finish)
            # ship each output immediately to the successor's scheduled resource
            for succ in self.workflow.successors(job):
                target = self.schedule.resource_of(succ)
                until = self.pool.resource(target).available_until
                if target in departed or (until is not None and finish >= until - TIME_EPS):
                    # the target already left the grid: no transfer happens;
                    # the stranded successor re-fetches inputs at failover
                    continue
                transfer = self.estimated_costs.communication_cost(job, succ, rid, target)
                arrival = finish + transfer
                current = arrivals.get((job, succ))
                if current is not None and current <= arrival + TIME_EPS:
                    continue  # a duplicate copy already provides the data sooner
                arrivals[(job, succ)] = arrival
                if transfer > 0:
                    trace.record_transfer(
                        TransferRecord(job, succ, rid, target, finish, arrival)
                    )
                    engine.post(
                        arrival,
                        try_dispatch,
                        kind=EventKind.TRANSFER,
                        label=f"arrival:{job}->{succ}",
                    )
            ship_to_consumer_dups(job, rid, finish)
            try_dispatch()

        def on_dup_finish(index: int, rid: str, start: float, finish: float) -> None:
            duplicate = duplicates[index]
            job = duplicate.job_id
            dup_finished.add(index)
            in_flight.pop(("dup", index), None)
            trace.record_duplicate(job, rid, start, finish)
            # the duplicate's output is one more data source for the job's
            # consumers — possibly earlier (and local) relative to the
            # primary copy, which is exactly why the plan booked it
            for succ in self.workflow.successors(job):
                target = self.schedule.resource_of(succ)
                until = self.pool.resource(target).available_until
                if target in departed or (until is not None and finish >= until - TIME_EPS):
                    continue
                transfer = self.estimated_costs.communication_cost(job, succ, rid, target)
                arrival = finish + transfer
                current = arrivals.get((job, succ))
                if current is None or arrival < current - TIME_EPS:
                    arrivals[(job, succ)] = arrival
                    if arrival > engine.now + TIME_EPS:
                        engine.post(
                            arrival,
                            try_dispatch,
                            kind=EventKind.TRANSFER,
                            label=f"arrival:dup-{job}->{succ}",
                        )
            ship_to_consumer_dups(job, rid, finish)
            try_dispatch()

        def on_departure(removed: Tuple[str, ...]) -> None:
            now = engine.now
            impacted: List[str] = []
            removed_set = set(removed)
            departed.update(removed_set)
            # Kill the running jobs on *any* removed resource — including
            # failover targets that never appeared in the original schedule.
            for unit, (event, job_rid, start) in list(in_flight.items()):
                if job_rid not in removed_set:
                    continue
                event.cancel()
                del in_flight[unit]
                if isinstance(unit, tuple):
                    # a running duplicate dies with its resource: the partial
                    # re-execution is wasted work, but the primary copy still
                    # guarantees completion, so nothing fails over
                    index = unit[1]
                    dup_started.discard(index)
                    if start < now - TIME_EPS:
                        trace.record_kill(duplicates[index].job_id, job_rid, start, now)
                    continue
                job = unit
                started.discard(job)
                if start < now - TIME_EPS:
                    # execution actually began: its partial run is wasted
                    trace.record_kill(job, job_rid, start, now)
                # a launch whose start still lies in the future (input
                # transfer under way) is silently re-queued — no work done
                impacted.append(job)
                failover_queue.append(job)
            # Strand the not-yet-started remainder of each scheduled order;
            # stranded duplicates are dropped, never failed over.
            for rid in removed_set:
                order = order_on_resource.get(rid)
                if order is None:
                    continue
                stranded = [
                    job
                    for job in order[next_index[rid]:]
                    if isinstance(job, str)
                    and job not in started
                    and job not in finished
                ]
                next_index[rid] = len(order)
                impacted.extend(stranded)
                failover_queue.extend(stranded)
            if impacted and self.departure_policy == "fail":
                raise SimulationError(
                    f"resources {sorted(set(removed))} departed at {now} with "
                    f"work assigned (jobs {impacted}); departure_policy='fail'"
                )
            try_dispatch()

        # pool-change events: joins unblock dispatch, departures kill/strand
        for event in self.pool.events():
            if event.removed:
                engine.post(
                    event.time,
                    lambda removed=event.removed: on_departure(removed),
                    kind=EventKind.POOL_CHANGE,
                    priority=_DEPARTURE_PRIORITY,
                    label="pool-departure",
                )
            if event.added:
                engine.post(
                    event.time,
                    try_dispatch,
                    kind=EventKind.POOL_CHANGE,
                    label="pool-change",
                )

        engine.post(engine.now, try_dispatch, label="bootstrap")
        engine.run()

        if len(finished) != self.workflow.num_jobs:
            missing = sorted(set(self.workflow.jobs) - finished)
            raise SimulationError(
                f"execution stalled; unfinished jobs: {missing[:10]}"
                + ("..." if len(missing) > 10 else "")
            )
        return trace


class JustInTimeExecutor:
    """Dynamic just-in-time execution with a batch mapping heuristic.

    Jobs are mapped only when they become ready.  The mapper (default
    Min-Min) sees the resource pool as of the decision time, so it can use
    newly joined resources — yet, as the paper observes, it still loses
    badly to plan-ahead strategies on data-intensive workflows because
    transfers start late and decisions are local.

    Departures kill running jobs on the departing resource (wasted work)
    and return them to the ready set; the next dispatch maps them again on
    the surviving pool.  ``perf_profile`` scales actual durations as in
    :class:`StaticScheduleExecutor`.
    """

    def __init__(
        self,
        workflow: Workflow,
        costs: CostModel,
        pool: ResourcePool,
        *,
        mapper=None,
        actual_costs: Optional[CostModel] = None,
        strategy_name: Optional[str] = None,
        perf_profile=None,
        history=None,
    ) -> None:
        self.workflow = workflow
        self.costs = costs
        self.actual_costs = actual_costs or costs
        self.pool = pool
        self.mapper = mapper or MinMinScheduler()
        self.strategy_name = strategy_name or getattr(self.mapper, "name", "dynamic")
        self.perf_profile = perf_profile
        self.history = history

    # ------------------------------------------------------------------
    def _duration(self, job: str, rid: str, start: float) -> float:
        duration = self.actual_costs.computation_cost(job, rid)
        if self.perf_profile is not None:
            duration *= self.perf_profile.factor_at(rid, start)
        return duration

    def _observe(self, job: str, rid: str, start: float, finish: float) -> None:
        """Report one completed execution to the Performance Monitor.

        Normalised and estimate-stamped exactly like
        :meth:`StaticScheduleExecutor._observe`, so every monitor writes
        the same semantics into a shared history repository.
        """
        if self.history is None:
            return
        duration = finish - start
        if self.perf_profile is not None:
            factor = self.perf_profile.factor_at(rid, start)
            if factor != 1.0:
                duration /= factor
        self.history.record_execution(
            self.workflow.job(job).operation,
            rid,
            duration,
            job_id=job,
            finished_at=finish,
            estimated=self.costs.computation_cost(job, rid),
        )

    def run(self, *, core: Optional[EventCore] = None) -> ExecutionTrace:
        engine = core or EventCore()
        trace = ExecutionTrace(
            workflow_name=self.workflow.name, strategy=self.strategy_name
        )

        finished: Set[str] = set()
        mapped: Set[str] = set()
        data_location: Dict[str, str] = {}
        resource_free: Dict[str, float] = {}
        #: running job -> (finish event, resource, start)
        in_flight: Dict[str, Tuple[Event, str, float]] = {}

        def ready_jobs() -> List[str]:
            out = []
            for job in self.workflow.jobs:
                if job in mapped or job in finished:
                    continue
                if all(pred in finished for pred in self.workflow.predecessors(job)):
                    out.append(job)
            return out

        def dispatch() -> None:
            now = engine.now
            batch = ready_jobs()
            if not batch:
                return
            resources = self.pool.available_at(now)
            if not resources:
                raise SimulationError(f"no resources available at time {now}")
            free = {
                rid: max(
                    resource_free.get(rid, 0.0),
                    self.pool.resource(rid).available_from,
                )
                for rid in resources
            }
            # the just-in-time mapper sees *current* resource speeds, the
            # same information the adaptive Planner replans with
            estimates = self.costs
            if self.perf_profile is not None:
                estimates = self.perf_profile.scaled_costs(self.costs, now)
            assignments = self.mapper.map_ready_jobs(
                batch,
                self.workflow,
                estimates,
                resources,
                clock=now,
                resource_free=free,
                data_location=data_location,
            )
            for planned in assignments:
                mapped.add(planned.job_id)
                # With accurate estimates the planned start is already
                # feasible; with perturbed actual costs (or a slowdown
                # factor) the resource may still be busy, so the start is
                # pushed back accordingly.
                start = max(planned.start, resource_free.get(planned.resource_id, 0.0))
                duration = self._duration(planned.job_id, planned.resource_id, start)
                finish = start + duration
                resource_free[planned.resource_id] = finish
                # record input transfers initiated at the decision time
                for pred in self.workflow.predecessors(planned.job_id):
                    src = data_location[pred]
                    transfer = self.costs.communication_cost(
                        pred, planned.job_id, src, planned.resource_id
                    )
                    if transfer > 0:
                        trace.record_transfer(
                            TransferRecord(
                                pred,
                                planned.job_id,
                                src,
                                planned.resource_id,
                                now,
                                now + transfer,
                            )
                        )
                event = engine.post(
                    finish,
                    lambda a=planned, s=start, f=finish: on_finish(a.job_id, a.resource_id, s, f),
                    kind=EventKind.COMPLETION,
                    label=f"finish:{planned.job_id}",
                )
                in_flight[planned.job_id] = (event, planned.resource_id, start)

        def on_finish(job: str, rid: str, start: float, finish: float) -> None:
            finished.add(job)
            in_flight.pop(job, None)
            data_location[job] = rid
            trace.record_job(job, rid, start, finish)
            self._observe(job, rid, start, finish)
            dispatch()

        def on_departure(removed: Tuple[str, ...]) -> None:
            now = engine.now
            removed_set = set(removed)
            killed: List[str] = []
            for job, (event, rid, start) in list(in_flight.items()):
                if rid not in removed_set:
                    continue
                event.cancel()
                del in_flight[job]
                mapped.discard(job)
                if start < now - TIME_EPS:
                    # execution actually began: its partial run is wasted
                    trace.record_kill(job, rid, start, now)
                # a mapping whose start still lies in the future (input
                # transfer under way) is silently re-queued — no work done
                killed.append(job)
            if killed:
                dispatch()

        for event in self.pool.events():
            if event.removed:
                engine.post(
                    event.time,
                    lambda removed=event.removed: on_departure(removed),
                    kind=EventKind.POOL_CHANGE,
                    priority=_DEPARTURE_PRIORITY,
                    label="pool-departure",
                )

        engine.post(engine.now, dispatch, label="bootstrap")
        engine.run()

        if len(finished) != self.workflow.num_jobs:
            missing = sorted(set(self.workflow.jobs) - finished)
            raise SimulationError(
                f"dynamic execution stalled; unfinished jobs: {missing[:10]}"
            )
        return trace
