"""Tests for scheduling data structures: Assignment, Schedule, timelines, state.

Includes the fast-kernel guarantees: a hypothesis property test that the
bisect-based :class:`ResourceTimeline` behaves exactly like the seed (naive
O(n²)) timeline on random interval sequences, and equivalence tests that the
rewritten HEFT/AHEFT produce bit-identical schedules to the frozen seed
kernel (the test oracle ``benchmarks/_seed_reference.py``) on seeded random
and application DAGs.
"""

import copy
import dataclasses
import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from benchmarks._seed_reference import (
    SeedAHEFTScheduler,
    SeedResourceTimeline,
    seed_aheft_reschedule,
    seed_heft_schedule,
)
from repro.generators.blast import generate_blast_case
from repro.generators.wien2k import generate_wien2k_case
from repro.resources.dynamics import ResourceChangeModel
from repro.scheduling.aheft import AHEFTScheduler
from repro.scheduling.base import (
    Assignment,
    ExecutionState,
    JobStatus,
    ResourceTimeline,
    Schedule,
)
from repro.scheduling.frame import PartialScheduleFrame
from repro.scheduling.heft import HEFTScheduler
from repro.workflow.costs import CostModel

_NAN = float("nan")


class TestAssignment:
    def test_duration(self):
        a = Assignment("j", "r", 2.0, 5.0)
        assert a.duration == 3.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="assignment of 'j' finishes before it starts"):
            Assignment("j", "r", 5.0, 2.0)

    def test_shifted(self):
        a = Assignment("j", "r", 2.0, 5.0).shifted(10.0)
        assert (a.start, a.finish) == (12.0, 15.0)

    @pytest.mark.parametrize("start, finish", [(_NAN, 1.0), (1.0, _NAN), (_NAN, _NAN)])
    def test_nan_bound_rejected_by_name(self, start, finish):
        with pytest.raises(ValueError, match="must be finite"):
            Assignment("j", "r", start, finish)

    def test_keywords_and_tolerance(self):
        a = Assignment(job_id="j", resource_id="r", start=1.0, finish=1.0 - 1e-10)
        assert (a.job_id, a.resource_id, a.start, a.finish) == ("j", "r", 1.0, 1.0 - 1e-10)

    @pytest.mark.parametrize("field", ["job_id", "resource_id", "start", "finish", "other"])
    def test_frozen(self, field):
        a = Assignment("j", "r", 2.0, 5.0)
        frozen = dataclasses.FrozenInstanceError
        with pytest.raises(frozen, match=f"cannot assign to field '{field}'"):
            setattr(a, field, 1.0)
        with pytest.raises(frozen, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        assert (a.start, a.finish) == (2.0, 5.0)

    def test_equality_and_hash(self):
        a = Assignment("j", "r", 2.0, 5.0)
        assert a == Assignment("j", "r", 2.0, 5.0)
        assert hash(a) == hash(Assignment("j", "r", 2.0, 5.0)) == hash(("j", "r", 2.0, 5.0))
        assert a != Assignment("j", "r", 2.0, 6.0)
        assert a != Assignment("k", "r", 2.0, 5.0)
        assert len({a, Assignment("j", "r", 2.0, 5.0), a.shifted(1.0)}) == 2

    def test_never_equal_to_a_tuple(self):
        a = Assignment("j", "r", 2.0, 5.0)
        assert a != ("j", "r", 2.0, 5.0)
        assert ("j", "r", 2.0, 5.0) != a
        assert a not in {("j", "r", 2.0, 5.0)}

    def test_repr(self):
        assert repr(Assignment("j", "r", 2.0, 5.0)) == (
            "Assignment(job_id='j', resource_id='r', start=2.0, finish=5.0)"
        )

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a)),
         lambda a: pickle.loads(pickle.dumps(a, protocol=0))],
    )
    def test_copy_and_pickle(self, clone):
        a = Assignment("j", "r", 2.0, 5.0)
        b = clone(a)
        assert type(b) is Assignment and b == a and repr(b) == repr(a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.start = 0.0

    def test_no_instance_dict(self):
        a = Assignment("j", "r", 2.0, 5.0)
        assert not hasattr(a, "__dict__")

    def test_matches_the_dataclass_record(self):
        """Repr, hash and match args of the frozen dataclass the record
        replaces."""
        for fields in [("j", "r", 2.0, 5.0), ("x", "y", 0.0, 0.0), ("a", "b", -1.5, 1e9)]:
            record, reference = Assignment(*fields), _DataclassAssignment(*fields)
            assert repr(record) == repr(reference).replace("_DataclassAssignment", "Assignment")
            assert hash(record) == hash(reference)
            assert record.__match_args__ == reference.__match_args__
            assert record != reference


@dataclasses.dataclass(frozen=True)
class _DataclassAssignment:
    job_id: str
    resource_id: str
    start: float
    finish: float


class TestResourceTimeline:
    def test_append_without_insertion(self):
        tl = ResourceTimeline("r1")
        tl.occupy(0.0, 10.0, "a")
        assert tl.earliest_start(0.0, 5.0, insertion=False) == 10.0

    def test_insertion_finds_gap(self):
        tl = ResourceTimeline("r1")
        tl.occupy(0.0, 5.0, "a")
        tl.occupy(20.0, 30.0, "b")
        assert tl.earliest_start(0.0, 10.0, insertion=True) == 5.0

    def test_insertion_skips_too_small_gap(self):
        tl = ResourceTimeline("r1")
        tl.occupy(0.0, 5.0, "a")
        tl.occupy(8.0, 30.0, "b")
        assert tl.earliest_start(0.0, 10.0, insertion=True) == 30.0

    def test_ready_time_and_available_from(self):
        tl = ResourceTimeline("r1", available_from=7.0)
        assert tl.ready_time() == 7.0
        assert tl.earliest_start(0.0, 1.0) == 7.0
        tl.occupy(7.0, 9.0, "a")
        assert tl.ready_time() == 9.0

    def test_overlap_rejected(self):
        tl = ResourceTimeline("r1")
        tl.occupy(0.0, 10.0, "a")
        with pytest.raises(ValueError, match="overlaps"):
            tl.occupy(5.0, 15.0, "b")

    @pytest.mark.parametrize("start, finish", [(_NAN, _NAN), (_NAN, 1.0), (1.0, _NAN)])
    def test_nan_booking_rejected_by_name(self, start, finish):
        tl = ResourceTimeline("r1")
        tl.occupy(0.0, 0.5, "a")
        with pytest.raises(ValueError, match="must be finite"):
            tl.occupy(start, finish, "b")
        with pytest.raises(ValueError, match="must be finite"):
            ResourceTimeline("r2").bulk_load([(start, finish, "b")])
        # nothing was booked: the slot search still sees the one interval
        assert tl.intervals() == [(0.0, 0.5, "a")]
        assert tl.earliest_start(0.0, 1.0) == 0.5

    def test_reversed_span_keeps_its_own_message(self):
        tl = ResourceTimeline("r1")
        with pytest.raises(ValueError, match="finish precedes start"):
            tl.occupy(2.0, 1.0, "a")
        with pytest.raises(ValueError, match="finish precedes start"):
            tl.bulk_load([(2.0, 1.0, "a")])

    def test_touching_intervals_allowed(self):
        tl = ResourceTimeline("r1")
        tl.occupy(0.0, 10.0, "a")
        tl.occupy(10.0, 20.0, "b")
        assert len(tl.intervals()) == 2

    def test_utilisation(self):
        tl = ResourceTimeline("r1")
        tl.occupy(0.0, 5.0, "a")
        assert tl.utilisation(10.0) == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        cuts=st.lists(st.integers(0, 40), min_size=0, max_size=16),
        order=st.randoms(use_true_random=False),
        time=st.integers(-2, 42),
    )
    def test_count_finishing_after_matches_a_scan(self, cuts, order, time):
        # consecutive cut points pair up into touching, zero-length and
        # spaced intervals, booked in a random order
        points = sorted(cuts)
        spans = list(zip(points[::2], points[1::2]))
        order.shuffle(spans)
        tl = ResourceTimeline("r1")
        for index, (start, finish) in enumerate(spans):
            tl.occupy(start * 0.5, finish * 0.5, f"j{index}")
        at = time * 0.5
        expected = sum(1 for _, finish, _ in tl.intervals() if finish > at)
        assert tl.count_finishing_after(at) == expected


#: quarter-unit grid keeps the generated times well away from TIME_EPS-scale
#: coincidences while still exercising touching, nested and zero-length
#: intervals.
_GRID = 0.25


class TestTimelineMatchesSeedTimeline:
    """Property test: bisect timeline ≡ naive seed timeline."""

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 120), st.integers(0, 30)), max_size=40
        ),
        queries=st.lists(
            st.tuples(st.integers(0, 160), st.integers(0, 30)),
            min_size=1,
            max_size=12,
        ),
        available=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_occupy_ready_earliest_match(self, ops, queries, available):
        fast = ResourceTimeline("r", available_from=available * _GRID)
        naive = SeedResourceTimeline("r", available_from=available * _GRID)
        for k, (start_units, duration_units) in enumerate(ops):
            start = start_units * _GRID
            finish = (start_units + duration_units) * _GRID
            job = f"job{k}"
            naive_raised = fast_raised = False
            try:
                naive.occupy(start, finish, job)
            except ValueError:
                naive_raised = True
            try:
                fast.occupy(start, finish, job)
            except ValueError:
                fast_raised = True
            assert fast_raised == naive_raised, (start, finish, naive.intervals())
        assert fast.intervals() == naive.intervals()
        assert fast.ready_time() == naive.ready_time()
        for ready_units, duration_units in queries:
            ready = ready_units * _GRID
            duration = duration_units * _GRID
            for insertion in (True, False):
                assert fast.earliest_start(
                    ready, duration, insertion=insertion
                ) == naive.earliest_start(ready, duration, insertion=insertion), (
                    ready,
                    duration,
                    insertion,
                    fast.intervals(),
                )

    def test_zero_length_task_can_slot_before_ready_boundary(self):
        # zero-duration tasks take the seed's full gap scan; make sure the
        # two implementations agree on the degenerate path too
        fast = ResourceTimeline("r")
        naive = SeedResourceTimeline("r")
        for timeline in (fast, naive):
            timeline.occupy(0.0, 5.0, "a")
            timeline.occupy(5.0, 9.0, "b")
        assert fast.earliest_start(5.0, 0.0) == naive.earliest_start(5.0, 0.0)
        assert fast.earliest_start(4.0, 0.0) == naive.earliest_start(4.0, 0.0)


#: epsilon-scale grid for the gap-accept/occupy consistency property: values
#: a few TIME_EPS apart are exactly where ``+ eps`` and ``- eps`` comparisons
#: round differently.
_EPS_GRID = 1e-9


class TestGapAcceptOccupyConsistency:
    """``earliest_start`` must never hand out a slot ``occupy`` rejects.

    Regression for an epsilon asymmetry: the gap scan accepted slots with
    ``cursor + duration <= start + TIME_EPS`` while ``occupy`` flags an
    overlap on ``start < finish - TIME_EPS``.  For epsilon-scale operands
    the two float expressions round differently, so an epsilon-duration job
    could be booked into a gap that ``occupy`` (and the schedule validator)
    then rejected as overlapping.
    """

    def test_epsilon_duration_gap_found_by_fuzzing(self):
        # minimal counterexample found by fuzzing the pre-fix scan:
        # cursor + duration and start + TIME_EPS both round to
        # 3.0000000000000004e-09, so the old gap accept fired while
        # occupy's ``finish - TIME_EPS`` check still saw an overlap
        tl = ResourceTimeline("r")
        tl.occupy(2e-09, 0.250000002, "j0")
        tl.occupy(0.5, 1.5, "j1")
        duration = 2e-09
        slot = tl.earliest_start(1e-09, duration)
        tl.occupy(slot, slot + duration, "j2")

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 8)), max_size=12
        ),
        queries=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 8)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_epsilon_scale_slots_are_always_bookable(self, ops, queries):
        tl = ResourceTimeline("r")
        for k, (start_units, duration_units) in enumerate(ops):
            start = start_units * _EPS_GRID
            finish = start + duration_units * _EPS_GRID
            try:
                tl.occupy(start, finish, f"j{k}")
            except ValueError:
                pass  # overlapping op: keep the timeline, drop the interval
        booked = tl.intervals()
        for ready_units, duration_units in queries:
            ready = ready_units * _EPS_GRID
            duration = duration_units * _EPS_GRID
            for insertion in (True, False):
                slot = tl.earliest_start(ready, duration, insertion=insertion)
                probe = ResourceTimeline("probe")
                for s, f, j in booked:
                    probe.occupy(s, f, j)
                probe.occupy(slot, slot + duration, "candidate")

    @given(
        offset=st.sampled_from((1e7, 1e8, 1e9)),
        ops=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 8)), max_size=12),
        queries=st.lists(
            st.tuples(st.integers(0, 50), st.integers(1, 12)), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_slot_search_negates_the_overlap_test_at_large_clocks(self, offset, ops, queries):
        # quarter-unit grid at clock offsets where an ulp reaches 1e-7: the
        # returned slot must be bookable, and every earlier candidate start
        # (the ready time or an interval's finish) must overlap
        tl = ResourceTimeline("r", available_from=offset)
        for k, (at, length) in enumerate(ops):
            try:
                tl.occupy(offset + at * _GRID, offset + (at + length) * _GRID, f"j{k}")
            except ValueError:
                pass  # overlapping op: keep the timeline, drop the interval
        booked = tl.intervals()

        def bookable(start, duration):
            probe = ResourceTimeline("probe", available_from=offset)
            for s, f, j in booked:
                probe.occupy(s, f, j)
            try:
                probe.occupy(start, start + duration, "candidate")
            except ValueError:
                return False
            return True

        for ready_units, duration_units in queries:
            ready = offset + ready_units * _GRID
            duration = duration_units * _GRID
            slot = tl.earliest_start(ready, duration)
            assert slot >= ready and bookable(slot, duration)
            earlier = {ready} | {f for _, f, _ in booked if ready < f < slot}
            assert not any(bookable(c, duration) for c in earlier if c < slot)


def _application_cases():
    yield generate_blast_case(24, ccr=1.0, beta=0.5, omega_dag=300.0, seed=4)
    yield generate_wien2k_case(16, ccr=1.0, beta=0.5, omega_dag=300.0, seed=4)


class _PairwiseCommunicationModel(CostModel):
    """Test-only model whose transfer cost depends on the resource pair.

    Computation costs delegate to a priced case's model.  A transfer between
    two distinct resources costs the edge's average scaled by a factor fixed
    per ordered resource pair (0.25 to 2.0); on the same resource it is
    free.  ``has_uniform_communication`` keeps its default ``False``, so the
    kernel must take its scalar FEA loop.
    """

    def __init__(self, base: CostModel) -> None:
        self.base = base
        self.workflow = base.workflow

    def computation_cost(self, job_id, resource_id):
        return self.base.computation_cost(job_id, resource_id)

    def intrinsic_average_computation_cost(self, job_id):
        return self.base.intrinsic_average_computation_cost(job_id)

    def communication_cost(self, src, dst, src_resource, dst_resource):
        if src_resource == dst_resource:
            return 0.0
        pair = f"{src_resource}>{dst_resource}".encode()
        factor = 0.25 + (zlib.crc32(pair) % 8) / 4.0
        return self.base.average_communication_cost(src, dst) * factor

    def average_communication_cost(self, src, dst):
        return self.base.average_communication_cost(src, dst)


def _pairwise_cases(make_case):
    for seed in (0, 1, 2):
        yield make_case(v=50, omega_dag=300.0, seed=seed)
    yield from _application_cases()


class TestPairwiseCommunicationKernel:
    """The scalar loop (pair-dependent transfers) matches the seed kernel."""

    RESOURCES = [f"r{i + 1}" for i in range(7)]

    def test_model_takes_the_scalar_loop(self, make_case):
        costs = _PairwiseCommunicationModel(make_case(v=10, seed=0).costs)
        assert not costs.has_uniform_communication
        assert not PartialScheduleFrame(costs.workflow, costs, self.RESOURCES)._fast

    def test_static_heft_identical(self, make_case):
        for case in _pairwise_cases(make_case):
            costs = _PairwiseCommunicationModel(case.costs)
            fast = HEFTScheduler().schedule(case.workflow, costs, self.RESOURCES)
            seed = seed_heft_schedule(case.workflow, costs, self.RESOURCES)
            assert fast.to_dict() == seed.to_dict()
            assert fast.makespan() == seed.makespan()

    def test_aheft_reschedule_identical_mid_flight(self, make_case):
        grown = self.RESOURCES[1:] + ["g1", "g2"]
        for case in _pairwise_cases(make_case):
            costs = _PairwiseCommunicationModel(case.costs)
            previous = HEFTScheduler().schedule(case.workflow, costs, self.RESOURCES)
            kwargs = dict(clock=previous.makespan() * 0.4, previous_schedule=previous)
            fast = AHEFTScheduler().reschedule(case.workflow, costs, grown, **kwargs)
            seed = seed_aheft_reschedule(case.workflow, costs, grown, **kwargs)
            assert fast.to_dict() == seed.to_dict()
            assert fast.makespan() == seed.makespan()


class TestKernelEquivalence:
    """The fast kernel must be bit-identical to the frozen seed kernel."""

    def test_static_heft_identical_on_random_dags(self, make_case):
        resources = [f"r{i + 1}" for i in range(12)]
        for case in (make_case(v=60, omega_dag=300.0, seed=s) for s in (0, 1, 2)):
            fast = HEFTScheduler().schedule(case.workflow, case.costs, resources)
            seed = seed_heft_schedule(case.workflow, case.costs, resources)
            assert fast.to_dict() == seed.to_dict()
            assert fast.makespan() == seed.makespan()

    def test_static_heft_identical_on_application_dags(self):
        resources = [f"r{i + 1}" for i in range(10)]
        for case in _application_cases():
            fast = HEFTScheduler().schedule(case.workflow, case.costs, resources)
            seed = seed_heft_schedule(case.workflow, case.costs, resources)
            assert fast.to_dict() == seed.to_dict()

    def test_aheft_reschedule_identical_mid_flight(self, make_case):
        resources = [f"r{i + 1}" for i in range(8)]
        for case in (make_case(v=60, omega_dag=300.0, seed=s) for s in (5, 6)):
            previous = HEFTScheduler().schedule(case.workflow, case.costs, resources)
            clock = previous.makespan() * 0.35
            grown = resources + ["g1", "g2", "g3"]
            fast = AHEFTScheduler().reschedule(
                case.workflow,
                case.costs,
                grown,
                clock=clock,
                previous_schedule=previous,
            )
            seed = seed_aheft_reschedule(
                case.workflow,
                case.costs,
                grown,
                clock=clock,
                previous_schedule=previous,
            )
            assert fast.to_dict() == seed.to_dict()

    def test_adaptive_run_identical_over_pool_events(self, make_case):
        model = ResourceChangeModel(
            initial_size=8, interval=150.0, fraction=0.2, max_events=6
        )
        for case in (make_case(v=80, omega_dag=300.0, seed=3),):
            pool = model.build_pool()
            fast = repro.run(
                case.workflow, pool, costs=case.costs, mode="adaptive", strategy=AHEFTScheduler()
            ).raw
            seed = repro.run(
                case.workflow, pool, costs=case.costs, mode="adaptive",
                strategy=SeedAHEFTScheduler()
            ).raw
            assert fast.final_schedule.to_dict() == seed.final_schedule.to_dict()
            assert fast.makespan == seed.makespan
            assert fast.rescheduling_count == seed.rescheduling_count

    def test_adaptive_run_identical_on_application_dag(self):
        model = ResourceChangeModel(
            initial_size=6, interval=200.0, fraction=0.25, max_events=5
        )
        case = generate_blast_case(20, ccr=1.0, beta=0.5, omega_dag=300.0, seed=8)
        pool = model.build_pool()
        fast = repro.run(
            case.workflow, pool, costs=case.costs, mode="adaptive", strategy=AHEFTScheduler()
        ).raw
        seed = repro.run(
            case.workflow, pool, costs=case.costs, mode="adaptive", strategy=SeedAHEFTScheduler()
        ).raw
        assert fast.final_schedule.to_dict() == seed.final_schedule.to_dict()
        assert fast.makespan == seed.makespan

    def test_priority_cache_invalidated_by_workflow_mutation(self, make_case):
        from repro.scheduling.heft import heft_priority_order
        from repro.workflow.analysis import upward_ranks

        case = make_case(v=20, omega_dag=300.0, seed=1)
        wf, costs = case.workflow, case.costs
        resources = ["r1", "r2", "r3"]
        order_before = heft_priority_order(wf, costs, resources)
        ranks_before = upward_ranks(wf, costs, resources)
        # second call must come from the cache and be equal
        assert heft_priority_order(wf, costs, resources) == order_before
        # structural mutation invalidates both ranks and order
        entry = wf.entry_jobs()[0]
        exit_job = wf.exit_jobs()[-1]
        wf.add_job("late_straggler")
        wf.add_edge(entry, "late_straggler", data=5.0)
        wf.add_edge("late_straggler", exit_job, data=5.0)
        # the new job needs costs before ranks can be recomputed; in-place
        # cost-table edits must be followed by invalidate_cache()
        costs.base_costs["late_straggler"] = 100.0
        costs.invalidate_cache()
        ranks_after = upward_ranks(wf, costs, resources)
        assert "late_straggler" in ranks_after
        # the extra entry -> straggler -> exit path can only raise the
        # entry's rank, never lower it
        assert ranks_after[entry] >= ranks_before[entry]
        assert "late_straggler" in heft_priority_order(wf, costs, resources)


class TestSchedule:
    def _schedule(self):
        s = Schedule(name="test")
        s.add(Assignment("a", "r1", 0.0, 5.0))
        s.add(Assignment("b", "r1", 5.0, 9.0))
        s.add(Assignment("c", "r2", 1.0, 4.0))
        return s

    def test_basic_queries(self):
        s = self._schedule()
        assert len(s) == 3
        assert "a" in s and "ghost" not in s
        assert s.resource_of("c") == "r2"
        assert s.scheduled_finish_time("b") == 9.0
        assert s.makespan() == 9.0

    def test_empty_makespan_zero(self):
        assert Schedule().makespan() == 0.0

    def test_assignments_on_sorted(self):
        s = self._schedule()
        on_r1 = s.assignments_on("r1")
        assert [a.job_id for a in on_r1] == ["a", "b"]

    def test_replace_assignment(self):
        s = self._schedule()
        s.add(Assignment("a", "r2", 0.0, 3.0))
        assert s.resource_of("a") == "r2"
        assert len(s) == 3

    def test_copy_is_independent(self):
        s = self._schedule()
        clone = s.copy(name="clone")
        clone.add(Assignment("d", "r2", 4.0, 6.0))
        assert "d" in clone and "d" not in s

    def test_timelines_reflect_assignments(self):
        s = self._schedule()
        timelines = s.timelines(["r1", "r2", "r3"])
        assert timelines["r1"].ready_time() == 9.0
        assert timelines["r3"].ready_time() == 0.0

    def test_gantt_rows_and_dict(self):
        s = self._schedule()
        rows = s.gantt_rows()
        assert rows[0][0] == "r1"
        as_dict = s.to_dict()
        assert as_dict["a"]["resource"] == "r1"
        assert as_dict["c"]["finish"] == 4.0

    def test_resources_used(self):
        assert self._schedule().resources_used() == ["r1", "r2"]


class TestExecutionState:
    def test_initial_state(self):
        state = ExecutionState.initial(["a", "b"])
        assert state.job_status("a") is JobStatus.NOT_STARTED
        assert state.not_started_jobs() == ["a", "b"]
        assert not state.all_finished()

    def test_record_lifecycle(self):
        state = ExecutionState.initial(["a"])
        state.record_start("a", "r1", 1.0)
        assert state.is_running("a")
        state.record_finish("a", 3.0)
        assert state.is_finished("a")
        assert state.actual_finish["a"] == 3.0
        assert state.data_available_at("a", "r1") == 3.0
        assert state.all_finished()

    def test_finish_without_start_raises(self):
        state = ExecutionState.initial(["a"])
        with pytest.raises(ValueError):
            state.record_finish("a", 3.0)

    def test_data_arrival_keeps_earliest(self):
        state = ExecutionState.initial(["a"])
        state.record_data_arrival("a", "r2", 10.0)
        state.record_data_arrival("a", "r2", 8.0)
        state.record_data_arrival("a", "r2", 12.0)
        assert state.data_available_at("a", "r2") == 8.0

    def test_from_schedule_statuses(self):
        schedule = Schedule()
        schedule.add(Assignment("a", "r1", 0.0, 5.0))
        schedule.add(Assignment("b", "r1", 5.0, 12.0))
        schedule.add(Assignment("c", "r2", 20.0, 25.0))
        state = ExecutionState.from_schedule(schedule, clock=10.0)
        assert state.is_finished("a")
        assert state.is_running("b")
        assert state.is_not_started("c")
        assert state.executed_on["a"] == "r1"
        assert state.actual_finish["a"] == 5.0
        assert state.data_available_at("a", "r1") == 5.0

    def test_from_schedule_with_explicit_job_list(self):
        schedule = Schedule()
        schedule.add(Assignment("a", "r1", 0.0, 5.0))
        state = ExecutionState.from_schedule(schedule, clock=1.0, jobs=["a", "b"])
        assert state.job_status("b") is JobStatus.NOT_STARTED
