"""Tests for what-if analysis."""

import pytest

from repro.core.whatif import WhatIfAnalyzer
from repro.generators.blast import generate_blast_case
from repro.generators.sample import sample_dag_cost_model, sample_dag_pool, sample_dag_workflow
from repro.resources.dynamics import ResourceChangeModel
from repro.resources.pool import ResourcePool
from repro.resources.resource import Resource
from repro.scheduling.base import ExecutionState


@pytest.fixture
def blast_setup():
    case = generate_blast_case(15, ccr=1.0, beta=0.5, omega_dag=100.0, seed=2)
    pool = ResourceChangeModel(initial_size=3, interval=200.0, fraction=0.5, max_events=10).build_pool()
    return case, pool


class TestWhatIf:
    @pytest.fixture
    def sample_setup(self):
        wf = sample_dag_workflow()
        costs = sample_dag_cost_model(wf)
        pool = ResourcePool([Resource("r1"), Resource("r2"), Resource("r3")])
        from repro.scheduling.heft import HEFTScheduler

        schedule = HEFTScheduler().schedule(wf, costs, ["r1", "r2", "r3"])
        return wf, costs, pool, schedule

    def test_addition_query_reports_gain_or_zero(self, sample_setup):
        wf, costs, pool, schedule = sample_setup
        analyzer = WhatIfAnalyzer(wf, costs, pool)
        result = analyzer.if_resources_added(
            [Resource("r4", available_from=15.0)], clock=15.0, current_schedule=schedule
        )
        assert result.baseline_makespan == pytest.approx(80.0)
        assert result.predicted_makespan <= result.baseline_makespan + 1e-9
        assert "add r4" in result.query

    def test_removal_query_never_improves(self, sample_setup):
        wf, costs, pool, schedule = sample_setup
        analyzer = WhatIfAnalyzer(wf, costs, pool)
        result = analyzer.if_resources_removed(["r2"], clock=15.0, current_schedule=schedule)
        assert result.predicted_makespan >= result.baseline_makespan - 1e-9
        assert not result.is_beneficial or result.predicted_gain == 0

    def test_cannot_remove_everything(self, sample_setup):
        wf, costs, pool, schedule = sample_setup
        analyzer = WhatIfAnalyzer(wf, costs, pool)
        with pytest.raises(ValueError):
            analyzer.if_resources_removed(["r1", "r2", "r3"], clock=0.0, current_schedule=schedule)

    def test_addition_requires_resources(self, sample_setup):
        wf, costs, pool, schedule = sample_setup
        analyzer = WhatIfAnalyzer(wf, costs, pool)
        with pytest.raises(ValueError):
            analyzer.if_resources_added([], clock=0.0, current_schedule=schedule)

    def test_rank_candidates_sorted_by_gain(self, blast_setup):
        case, pool = blast_setup
        from repro.scheduling.heft import HEFTScheduler

        resources = pool.initial_resources()
        schedule = HEFTScheduler().schedule(case.workflow, case.costs, resources)
        analyzer = WhatIfAnalyzer(case.workflow, case.costs, pool)
        candidates = [Resource("extra1"), Resource("extra2")]
        results = analyzer.rank_candidate_additions(
            candidates, clock=schedule.makespan() * 0.2, current_schedule=schedule
        )
        assert len(results) == 2
        assert results[0].predicted_gain >= results[1].predicted_gain
