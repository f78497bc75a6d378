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

Execution units
---------------
The static executor runs *execution units*: a job's primary copy (the
unit is the job id, a ``str``) or one of the schedule's duplicate copies
(the unit is the duplicate's index, an ``int``).  A duplicate occupies its
booked slot in its resource's order, re-runs its job's computation and is
one more source of the job's output, which is what the plan booked its
consumers against.  Both kinds share one per-resource order, one
``(producer, unit)`` arrival map, one launch and one completion handler;
only a primary copy completes its job (trace record, Performance Monitor
observation, failover source) and records its transfers to primary
consumers.  Both executors share the rest of a run (:class:`_Run`):
launching a unit's completion event, posting departures, the kill loop
and the stall check.

Departure semantics
-------------------
The paper's evaluation only exercises resource *additions*; the executors
additionally honour departures (``Resource.available_until``, produced by
``leave_fraction`` dynamics and the scenario engine) end to end:

* a **running** unit on a departing resource is *killed* at the departure
  instant: its partial execution is recorded as wasted work
  (:meth:`~repro.simulation.trace.ExecutionTrace.wasted_work`) and the
  kill in :attr:`~repro.simulation.trace.ExecutionTrace.kills`, and the
  job is re-executed;
* a job whose scheduled resource departed **before it started** is
  *stranded* and likewise re-dispatched;
* a job finishing exactly at the departure instant completes normally.

How the re-execution happens is strategy-specific.  The static executor
fails killed and stranded jobs over just-in-time to the surviving
resource that can finish them earliest — the honest baseline behaviour of
grid middleware that resubmits failed jobs without replanning.  A
duplicate copy lost to a departure is dropped, never failed over: the
primary copy still guarantees completion, its consumers just wait for the
slower source.  The just-in-time executor returns the job to the ready
set and maps it again at the departure instant.

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
re-estimation on subsequent (re)planning passes.  Both executors and the
adaptive loop price dispatches with :func:`dispatch_duration` and report
completions with :func:`record_observation`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

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

#: a job's primary copy (its id) or a duplicate copy (its index)
Unit = Union[str, int]


def dispatch_duration(
    actual_costs: CostModel, job: str, rid: str, start: float, perf_profile=None
) -> float:
    """Actual duration of ``job`` dispatched on ``rid`` at ``start``.

    The ground-truth cost scaled by the resource's performance factor at
    dispatch: a job's speed is frozen when it starts.
    """
    duration = actual_costs.computation_cost(job, rid)
    if perf_profile is not None:
        duration *= perf_profile.factor_at(rid, start)
    return duration


def record_observation(
    history,
    workflow: Workflow,
    estimates: CostModel,
    job: str,
    rid: str,
    start: float,
    finish: float,
    perf_profile=None,
) -> None:
    """The Performance Monitor: report one completed execution to ``history``.

    The observed duration is normalised by the (known) performance factor
    at dispatch and stored with the Planner's prior estimate, so the
    history isolates the *estimate error* from the slowdown the profile
    already told the Planner about.  Every monitor (the adaptive loop and
    both executors) writes through here.  A ``None`` history records
    nothing.
    """
    if history is None:
        return
    duration = finish - start
    if perf_profile is not None:
        factor = perf_profile.factor_at(rid, start)
        if factor != 1.0:
            duration /= factor
    history.record_execution(
        workflow.job(job).operation,
        rid,
        duration,
        job_id=job,
        finished_at=finish,
        estimated=estimates.computation_cost(job, rid),
    )


class _Run:
    """The steps both executors repeat, for one run of ``executor``.

    Owns the event engine, the trace and the running units
    (``in_flight``: unit -> (finish event, resource, start)).
    """

    def __init__(self, executor, core: Optional[EventCore], duplicates=()) -> None:
        self.executor = executor
        self.engine = core or EventCore()
        self.trace = ExecutionTrace(
            workflow_name=executor.workflow.name, strategy=executor.strategy_name
        )
        self.duplicates = duplicates
        self.in_flight: Dict[Unit, Tuple[Event, str, float]] = {}

    def job_of(self, unit: Unit) -> str:
        return unit if isinstance(unit, str) else self.duplicates[unit].job_id

    def launch(self, unit: Unit, rid: str, start: float, on_finish) -> float:
        """Run ``unit`` on ``rid`` from ``start``; post its completion.

        ``on_finish(unit, rid, start, finish)`` fires at the finish, which
        is returned (the resource is busy until then).
        """
        job = self.job_of(unit)
        executor = self.executor
        finish = start + dispatch_duration(
            executor.actual_costs, job, rid, start, executor.perf_profile
        )

        def complete() -> None:
            self.in_flight.pop(unit, None)
            on_finish(unit, rid, start, finish)

        event = self.engine.post(
            finish,
            complete,
            kind=EventKind.COMPLETION,
            label=f"finish:{job}" if isinstance(unit, str) else f"finish-dup:{job}",
        )
        self.in_flight[unit] = (event, rid, start)
        return finish

    def post_pool_events(self, on_departure, on_join=None) -> None:
        """Post ``on_departure(removed)`` after same-time finishes, and joins."""
        for event in self.executor.pool.events():
            if event.removed:
                self.engine.post(
                    event.time,
                    lambda removed=event.removed: on_departure(removed),
                    kind=EventKind.POOL_CHANGE,
                    priority=_DEPARTURE_PRIORITY,
                    label="pool-departure",
                )
            if event.added and on_join is not None:
                self.engine.post(
                    event.time,
                    on_join,
                    kind=EventKind.POOL_CHANGE,
                    label="pool-change",
                )

    def kill(self, removed: Tuple[str, ...]) -> List[Unit]:
        """Cancel the units running on any ``removed`` resource, in launch order."""
        now = self.engine.now
        killed: List[Unit] = []
        for unit, (event, rid, start) in list(self.in_flight.items()):
            if rid not in removed:
                continue
            event.cancel()
            del self.in_flight[unit]
            if start < now - TIME_EPS:
                # execution actually began: its partial run is wasted
                self.trace.record_kill(self.job_of(unit), rid, start, now)
            # a launch whose start still lies in the future (input transfer
            # under way) is silently re-queued — no work done
            killed.append(unit)
        return killed

    def execute(
        self, dispatch, finished: Set[str], stalled: str, more: str = "..."
    ) -> ExecutionTrace:
        """Bootstrap ``dispatch``, run every event and check all jobs finished."""
        self.engine.post(self.engine.now, dispatch, label="bootstrap")
        self.engine.run()
        workflow = self.executor.workflow
        if len(finished) != workflow.num_jobs:
            missing = sorted(set(workflow.jobs) - finished)
            raise SimulationError(
                f"{stalled} stalled; unfinished jobs: {missing[:10]}"
                + (more if len(missing) > 10 else "")
            )
        return self.trace


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
        history=None,
    ) -> None:
        missing = [job for job in workflow.jobs if job not in schedule]
        if missing:
            raise ValueError(f"schedule does not cover jobs: {missing}")
        self.workflow = workflow
        self.estimated_costs = estimated_costs
        self.actual_costs = actual_costs or estimated_costs
        self.schedule = schedule
        self.pool = pool
        self.strategy_name = strategy_name
        self.perf_profile = perf_profile
        self.history = history

    # ------------------------------------------------------------------
    def run(self, *, core: Optional[EventCore] = None) -> ExecutionTrace:
        """Simulate the execution and return its trace."""
        workflow = self.workflow
        duplicates = self.schedule.duplicates
        run = _Run(self, core, duplicates)
        engine, trace = run.engine, run.trace

        # per-resource execution order = schedule order by start time
        order_on_resource: Dict[str, List[Unit]] = {}
        units_by_resource: Dict[str, List[Tuple[float, float, str, Unit]]] = {}
        for assignment in self.schedule:
            units_by_resource.setdefault(assignment.resource_id, []).append(
                (assignment.start, assignment.finish, assignment.job_id, assignment.job_id)
            )
        #: producer -> the duplicates consuming its output, in index order
        dup_consumers: Dict[str, List[int]] = {}
        for index, duplicate in enumerate(duplicates):
            units_by_resource.setdefault(duplicate.resource_id, []).append(
                (duplicate.start, duplicate.finish, duplicate.job_id, index)
            )
            for pred in workflow.predecessors(duplicate.job_id):
                dup_consumers.setdefault(pred, []).append(index)
        for rid in sorted(units_by_resource):
            entries = sorted(units_by_resource[rid], key=lambda e: e[:3])
            order_on_resource[rid] = [entry[3] for entry in entries]
        next_index: Dict[str, int] = {rid: 0 for rid in order_on_resource}
        resource_free: Dict[str, float] = {}
        for rid in order_on_resource:
            if rid not in self.pool:
                raise ValueError(f"schedule uses unknown resource {rid!r}")
            resource_free[rid] = self.pool.resource(rid).available_from

        # data availability per edge: (producer, consuming unit) -> time at
        # which the edge's data is available on the unit's resource.  The
        # data matrix is edge-specific (paper §3.4), so each dependency has
        # its own transfer.
        arrivals: Dict[Tuple[str, Unit], float] = {}
        #: launched units; a finished duplicate stays, a killed unit leaves
        started: Set[Unit] = set()
        finished: Set[str] = set()
        #: actual (resource, finish) of completed jobs, for failover re-fetches
        completed_on: Dict[str, Tuple[str, float]] = {}
        #: jobs needing just-in-time failover, in strand/kill order
        failover_queue: List[str] = []
        departed: Set[str] = set()

        def data_ready(unit: Unit, now: float) -> bool:
            for pred in workflow.predecessors(run.job_of(unit)):
                when = arrivals.get((pred, unit))
                if when is None or when > now + TIME_EPS:
                    return False
            return True

        def launch(unit: Unit, rid: str, start: float) -> None:
            started.add(unit)
            resource_free[rid] = run.launch(unit, rid, start, on_finish)

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
                if unit in started or not data_ready(unit, now):
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
                    preds = workflow.predecessors(job)
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
                        finish = ready + dispatch_duration(
                            self.actual_costs, job, rid, ready, self.perf_profile
                        )
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

        def on_finish(unit: Unit, rid: str, start: float, finish: float) -> None:
            job = run.job_of(unit)
            primary = isinstance(unit, str)
            if primary:
                finished.add(job)
                completed_on[job] = (rid, finish)
                trace.record_job(job, rid, start, finish)
                record_observation(
                    self.history, workflow, self.estimated_costs,
                    job, rid, start, finish, self.perf_profile,
                )
            else:
                trace.record_duplicate(job, rid, start, finish)
            # ship the output immediately to every consuming unit: the
            # successors' scheduled resources, then the waiting duplicates
            for consumer in (*workflow.successors(job), *dup_consumers.get(job, ())):
                if isinstance(consumer, str):
                    target = self.schedule.resource_of(consumer)
                    until = self.pool.resource(target).available_until
                    if until is not None and finish >= until - TIME_EPS:
                        # the target already left the grid: no transfer
                        # happens; the stranded successor re-fetches inputs
                        # at failover
                        continue
                    label = f"arrival:{'' if primary else 'dup-'}{job}->{consumer}"
                elif consumer in started:
                    continue
                else:
                    target = duplicates[consumer].resource_id
                    label = f"arrival:{job}->dup"
                if target in departed:
                    continue
                transfer = self.estimated_costs.communication_cost(
                    job, run.job_of(consumer), rid, target
                )
                arrival = finish + transfer
                key = (job, consumer)
                current = arrivals.get(key)
                # a primary's output to a primary consumer keeps an earlier
                # (duplicate) source and records its transfer; any other
                # copy replaces a source it beats by more than TIME_EPS
                both_primary = primary and isinstance(consumer, str)
                if both_primary:
                    if current is not None and current <= arrival + TIME_EPS:
                        continue
                elif current is not None and not arrival < current - TIME_EPS:
                    continue
                arrivals[key] = arrival
                if both_primary:
                    if not transfer > 0:
                        continue
                    trace.record_transfer(
                        TransferRecord(job, consumer, rid, target, finish, arrival)
                    )
                elif not arrival > engine.now + TIME_EPS:
                    continue
                engine.post(arrival, try_dispatch, kind=EventKind.TRANSFER, label=label)
            try_dispatch()

        def on_departure(removed: Tuple[str, ...]) -> None:
            departed.update(removed)
            # Kill the running units on *any* removed resource — including
            # failover targets that never appeared in the original schedule.
            # A killed duplicate's partial re-execution is wasted work, but
            # the primary copy still guarantees completion: only primaries
            # fail over.
            for unit in run.kill(removed):
                started.discard(unit)
                if isinstance(unit, str):
                    failover_queue.append(unit)
            # Strand the not-yet-started remainder of each scheduled order, in
            # the departure's own resource order (never set order, which
            # would follow the string hash seed); stranded duplicates are
            # dropped, never failed over.
            for rid in dict.fromkeys(removed):
                order = order_on_resource.get(rid)
                if order is None:
                    continue
                failover_queue.extend(
                    unit
                    for unit in order[next_index[rid]:]
                    if isinstance(unit, str) and unit not in started and unit not in finished
                )
                next_index[rid] = len(order)
            try_dispatch()

        # pool-change events: joins unblock dispatch, departures kill/strand
        run.post_pool_events(on_departure, on_join=try_dispatch)
        return run.execute(try_dispatch, finished, "execution")


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
    def run(self, *, core: Optional[EventCore] = None) -> ExecutionTrace:
        run = _Run(self, core)
        engine, trace = run.engine, run.trace

        finished: Set[str] = set()
        mapped: Set[str] = set()
        data_location: Dict[str, str] = {}
        resource_free: Dict[str, float] = {}

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
                job, rid = planned.job_id, planned.resource_id
                mapped.add(job)
                # With accurate estimates the planned start is already
                # feasible; with perturbed actual costs (or a slowdown
                # factor) the resource may still be busy, so the start is
                # pushed back accordingly.
                start = max(planned.start, resource_free.get(rid, 0.0))
                resource_free[rid] = run.launch(job, rid, start, on_finish)
                # record input transfers initiated at the decision time
                for pred in self.workflow.predecessors(job):
                    src = data_location[pred]
                    transfer = self.costs.communication_cost(pred, job, src, rid)
                    if transfer > 0:
                        trace.record_transfer(
                            TransferRecord(pred, job, src, rid, now, now + transfer)
                        )

        def on_finish(job: str, rid: str, start: float, finish: float) -> None:
            finished.add(job)
            data_location[job] = rid
            trace.record_job(job, rid, start, finish)
            record_observation(
                self.history, self.workflow, self.costs,
                job, rid, start, finish, self.perf_profile,
            )
            dispatch()

        def on_departure(removed: Tuple[str, ...]) -> None:
            killed = run.kill(removed)
            mapped.difference_update(killed)
            if killed:
                dispatch()

        run.post_pool_events(on_departure)
        return run.execute(dispatch, finished, "dynamic execution", more="")
