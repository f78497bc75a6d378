"""Differential tests: PartialScheduleFrame's fast min-EFT path vs the scalar loop.

:meth:`PartialScheduleFrame.min_eft_placement` has two implementations — the
generic per-resource FEA sweep (reference semantics) and the vectorised
default/override decomposition used when the cost model prices its own
workflow with placement-uniform communication.  The fast path must be
bit-identical on every scenario the schedulers can produce: cold starts,
mid-flight reschedules with pinned history, pool growth and shrinkage,
recorded data arrivals, and duplicate copies (historical and fresh).
"""

from __future__ import annotations

import pytest

from repro.generators.blast import generate_blast_case
from repro.generators.random_dag import RandomDAGParameters, generate_random_case
from repro.scheduling.base import ExecutionState
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


def _drive_and_compare(case, fast, slow, resources, *, insertion=True):
    """Place every unpinned job through both frames, comparing each step."""
    order = heft_priority_order(case.workflow, case.costs, resources)
    placed = 0
    for job in order:
        if job not in fast.to_schedule_set:
            continue
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
