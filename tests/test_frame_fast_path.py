"""Differential tests: PartialScheduleFrame's dense fast paths vs the scalar loop.

:meth:`PartialScheduleFrame.min_eft_placement` and
:meth:`PartialScheduleFrame.earliest_finish` each have two implementations —
the generic per-resource FEA sweep (reference semantics) and the dense
default/override decomposition used when the cost model prices its own
workflow with placement-uniform communication.  The fast paths must be
bit-identical on every scenario the schedulers can produce: cold starts,
mid-flight reschedules with pinned history, pool growth and shrinkage,
recorded data arrivals, and duplicate copies (historical and fresh) — and
so must whole min-cost-flow plans, which book every wave through
``earliest_finish``.  The frame's kept running-task counts must equal a
recount of its timelines after every booking.
"""

from __future__ import annotations

import pytest

from repro.generators.blast import generate_blast_case
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scheduling.base import TIME_EPS, ExecutionState
from repro.scheduling.flow import MinCostFlowScheduler
from repro.scheduling.frame import PartialScheduleFrame
from repro.scheduling.heft import HEFTScheduler, heft_priority_order


def _case(v: int, seed: int, out_degree: float = 0.2):
    params = RandomDAGParameters(
        v=v, out_degree=out_degree, ccr=1.0, beta=0.5, omega_dag=300.0
    )
    return generate_random_case(params, seed=seed)


def _paired_frames(case, resources, **kwargs):
    """Two frames over identical state: fast path on, fast path off."""
    fast = PartialScheduleFrame(case.workflow, case.costs, resources, **kwargs)
    slow = PartialScheduleFrame(case.workflow, case.costs, resources, **kwargs)
    assert fast._fast, "expected the fast path to be eligible"
    slow._fast = False  # force the scalar reference sweep
    return fast, slow


def _compare_earliest_finish(fast, slow, *, insertion=True):
    """Every open job whose inputs are mapped, on every resource."""
    compared = 0
    for job in fast.to_schedule:
        if job in fast.schedule:
            continue
        if not all(pred in fast.schedule for pred in fast.workflow.predecessors(job)):
            continue
        for rid in fast.resources:
            got = fast.earliest_finish(job, rid, insertion=insertion)
            want = slow.earliest_finish(job, rid, insertion=insertion)
            assert got == want, f"divergence at {job!r} on {rid!r}: fast={got} slow={want}"
            compared += 1
    return compared


def _drive_and_compare(case, fast, slow, resources, *, insertion=True):
    """Place every unpinned job through both frames, comparing each step."""
    order = heft_priority_order(case.workflow, case.costs, resources)
    placed = 0
    for job in order:
        if job not in fast.to_schedule_set:
            continue
        assert _compare_earliest_finish(fast, slow, insertion=insertion) > 0
        got = fast.min_eft_placement(job, insertion=insertion)
        want = slow.min_eft_placement(job, insertion=insertion)
        assert got == want, f"divergence at {job!r}: fast={got} slow={want}"
        rid, start, finish = got
        fast.place(job, rid, start, finish)
        slow.place(job, rid, start, finish)
        placed += 1
    assert placed > 0
    assert fast.schedule.to_dict() == slow.schedule.to_dict()


class TestFrameFastPath:
    def test_cold_start_matches_scalar(self):
        resources = [f"r{i + 1}" for i in range(9)]
        for seed in (0, 3, 7):
            case = _case(50, seed)
            fast, slow = _paired_frames(case, resources)
            _drive_and_compare(case, fast, slow, resources)

    def test_no_insertion_matches_scalar(self):
        resources = [f"r{i + 1}" for i in range(6)]
        case = _case(40, 11)
        fast, slow = _paired_frames(case, resources)
        _drive_and_compare(case, fast, slow, resources, insertion=False)

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_midflight_pool_change_matches_scalar(self, seed):
        resources = [f"r{i + 1}" for i in range(8)]
        case = _case(60, seed)
        previous = HEFTScheduler().schedule(case.workflow, case.costs, resources)
        clock = previous.makespan() * 0.4
        # shrink and grow the pool so recorded arrivals, departed old
        # targets, and fresh resources all appear in the override sets
        changed = resources[:-2] + ["g1", "g2", "g3"]
        fast, slow = _paired_frames(
            case, changed, clock=clock, previous_schedule=previous
        )
        _drive_and_compare(case, fast, slow, changed)

    def test_duplicates_lower_the_fea_identically(self):
        resources = [f"r{i + 1}" for i in range(7)]
        case = _case(45, 5)
        previous = HEFTScheduler().schedule(case.workflow, case.costs, resources)
        clock = previous.makespan() * 0.3
        fast, slow = _paired_frames(
            case, resources, clock=clock, previous_schedule=previous
        )
        order = heft_priority_order(case.workflow, case.costs, resources)
        pending = [j for j in order if j in fast.to_schedule_set]
        for step, job in enumerate(pending):
            assert _compare_earliest_finish(fast, slow) > 0
            got = fast.min_eft_placement(job)
            want = slow.min_eft_placement(job)
            assert got == want, f"divergence at {job!r}: fast={got} slow={want}"
            rid, start, finish = got
            fast.place(job, rid, start, finish)
            slow.place(job, rid, start, finish)
            # every third placement, book a duplicate copy of the job on
            # another resource so later successors see min'd arrivals
            if step % 3 == 0:
                other = resources[(step + 1) % len(resources)]
                if other != rid:
                    d_start, d_finish = fast.earliest_finish(job, other)
                    fast.place_duplicate(job, other, d_start, d_finish)
                    slow.place_duplicate(job, other, d_start, d_finish)
        assert fast.schedule.to_dict() == slow.schedule.to_dict()

    def test_application_dag_matches_scalar(self):
        case = generate_blast_case(24, ccr=1.0, beta=0.5, omega_dag=300.0, seed=2)
        resources = [f"r{i + 1}" for i in range(10)]
        previous = HEFTScheduler().schedule(case.workflow, case.costs, resources)
        clock = previous.makespan() * 0.5
        fast, slow = _paired_frames(
            case, resources, clock=clock, previous_schedule=previous
        )
        _drive_and_compare(case, fast, slow, resources)

    def test_explicit_execution_state_arrivals_match(self):
        # recorded data arrivals (satellite of ISSUE-10's FEA precedence
        # rule) must participate in the override enumeration identically
        resources = [f"r{i + 1}" for i in range(6)]
        case = _case(30, 8)
        previous = HEFTScheduler().schedule(case.workflow, case.costs, resources)
        clock = previous.makespan() * 0.45
        state = ExecutionState.from_schedule(
            previous, clock, jobs=case.workflow.jobs
        )
        # synthesize extra replicated-input arrivals for finished jobs
        for (job, rid), when in list(state.data_arrivals.items()):
            for other in resources[:2]:
                state.data_arrivals.setdefault((job, other), when * 1.25)
        fast, slow = _paired_frames(
            case,
            resources,
            clock=clock,
            previous_schedule=previous,
            execution_state=state,
        )
        _drive_and_compare(case, fast, slow, resources)


def _scalar_replan(scheduler, workflow, costs, resources, **kwargs):
    """``scheduler.reschedule`` on a frame forced onto the scalar FEA path."""
    frame = PartialScheduleFrame(
        workflow, costs, resources, name=scheduler.name, **kwargs
    )
    assert frame._fast, "expected the fast path to be eligible"
    frame._fast = False
    return scheduler.place(frame)


class TestFlowWavesMatchScalar:
    """Whole min-cost-flow plans book identically on dense and scalar frames."""

    POOL = [f"r{i + 1}" for i in range(5)]

    @pytest.mark.parametrize(
        "cost_model,weight", [("octopus", 1.0), ("credit", 0.5), ("locality", 1.0)]
    )
    @pytest.mark.parametrize("with_busy", [False, True])
    def test_plan_and_replan(self, cost_model, weight, with_busy):
        case = _case(80, 12)
        workflow, costs = case.workflow, case.costs
        scheduler = MinCostFlowScheduler(cost_model=cost_model, credit_weight=weight)
        busy = {"r1": [(5.0, 40.0)], "r3": [(0.0, 12.0), (60.0, 90.0)]}
        plan_kwargs = {"clock": 0.0, "previous_schedule": None}
        if with_busy:
            plan_kwargs["busy"] = busy
        initial = scheduler.reschedule(workflow, costs, self.POOL, **plan_kwargs)
        scalar = _scalar_replan(scheduler, workflow, costs, self.POOL, **plan_kwargs)
        assert initial.all_assignments() == scalar.all_assignments()

        # mid-flight: one resource leaves, two join, the busy spans move along
        clock = initial.makespan() * 0.4
        pool = self.POOL[:-1] + ["g1", "g2"]
        replan_kwargs = {"clock": clock, "previous_schedule": initial}
        if with_busy:
            replan_kwargs["busy"] = {
                rid: [(clock + start - 5.0, clock + finish) for start, finish in spans]
                for rid, spans in busy.items()
            }
        replanned = scheduler.reschedule(workflow, costs, pool, **replan_kwargs)
        scalar = _scalar_replan(scheduler, workflow, costs, pool, **replan_kwargs)
        assert replanned.all_assignments() == scalar.all_assignments()
        assert len(replanned) == len(workflow.jobs)


class TestRunningTasks:
    """:meth:`PartialScheduleFrame.running_tasks` equals a recount of the
    timelines after every booking."""

    @staticmethod
    def _assert_counts(frame):
        after = frame.clock + TIME_EPS
        for rid in frame.resources:
            want = frame.timelines[rid].count_finishing_after(after)
            assert frame.running_tasks(rid) == want, rid

    @pytest.mark.parametrize("mid_flight,with_busy", [(False, False), (True, False), (True, True)])
    def test_counts_follow_every_booking(self, mid_flight, with_busy):
        resources = [f"r{i + 1}" for i in range(5)]
        case = _case(40, 6)
        kwargs = {}
        if mid_flight:
            previous = HEFTScheduler().schedule(case.workflow, case.costs, resources)
            clock = previous.makespan() * 0.35
            kwargs = {"clock": clock, "previous_schedule": previous}
            if with_busy:
                # one foreign span across the clock, one before, one after
                kwargs["busy"] = {
                    "r1": [(clock - 5.0, clock + 12.0), (clock + 20.0, clock + 30.0)],
                    "r2": [(clock - 30.0, clock - 10.0)],
                }
        # ``g1`` joins empty: room for a zero-length booking at the clock
        pool = resources + ["g1"]
        frame = PartialScheduleFrame(case.workflow, case.costs, pool, **kwargs)
        if mid_flight:
            assert any(a.finish <= frame.clock for a in frame.pinned.values())
        self._assert_counts(frame)
        order = [
            job
            for job in heft_priority_order(case.workflow, case.costs, pool)
            if job in frame.to_schedule_set
        ]
        # a zero-duration job ending at the clock is not running
        frame.place(order[0], "g1", frame.clock, frame.clock)
        self._assert_counts(frame)
        for step, job in enumerate(order[1:]):
            rid, start, finish = frame.min_eft_placement(job)
            frame.place(job, rid, start, finish)
            self._assert_counts(frame)
            other = pool[(step + 1) % len(pool)]
            if step % 4 == 0 and other != rid:
                frame.place_duplicate(job, other, *frame.earliest_finish(job, other))
                self._assert_counts(frame)
