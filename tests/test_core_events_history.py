"""Tests for the history repository and predictor."""

import numpy as np
import pytest

from repro.core.history import PerformanceHistoryRepository, PerformanceRecord
from repro.core.predictor import HistoryAdjustedCostModel, Predictor


class TestHistory:
    def test_record_and_average(self):
        history = PerformanceHistoryRepository()
        history.record_execution("blast", "r1", 10.0)
        history.record_execution("blast", "r1", 14.0)
        assert history.observed_duration("blast", "r1") == pytest.approx(12.0)
        assert history.observation_count("blast", "r1") == 2

    def test_operation_level_average(self):
        history = PerformanceHistoryRepository()
        history.record_execution("blast", "r1", 10.0)
        history.record_execution("blast", "r2", 20.0)
        assert history.observed_duration("blast") == pytest.approx(15.0)

    def test_missing_observation_returns_none(self):
        history = PerformanceHistoryRepository()
        assert history.observed_duration("nothing") is None
        assert history.observed_duration("nothing", "r1") is None

    def test_decay_prefers_recent_observations(self):
        history = PerformanceHistoryRepository(decay=0.5)
        history.record_execution("op", "r1", 100.0)
        history.record_execution("op", "r1", 10.0)
        assert history.observed_duration("op", "r1") < 55.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            PerformanceRecord(operation="op", resource_id="r1", duration=-1.0)

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            PerformanceHistoryRepository(decay=0.0)

    def test_clear(self):
        history = PerformanceHistoryRepository()
        history.record_execution("op", "r1", 1.0)
        history.clear()
        assert len(history) == 0
        assert history.operations() == []


class TestPredictor:
    def test_empty_history_returns_prior(self, diamond_costs):
        predictor = Predictor(PerformanceHistoryRepository())
        assert predictor.estimate(diamond_costs) is diamond_costs

    def test_history_overrides_prior(self, diamond_workflow, diamond_costs):
        history = PerformanceHistoryRepository()
        history.record_execution("task", "r1", 100.0)  # all diamond jobs share operation "task"
        predictor = Predictor(history)
        model = predictor.estimate(diamond_costs)
        assert isinstance(model, HistoryAdjustedCostModel)
        assert model.computation_cost("a", "r1") == pytest.approx(100.0)

    def test_blend_mixes_prior_and_history(self, diamond_workflow, diamond_costs):
        history = PerformanceHistoryRepository()
        history.record_execution("task", "r1", 100.0)
        model = HistoryAdjustedCostModel(diamond_costs, history, blend=0.5)
        expected = 0.5 * 100.0 + 0.5 * diamond_costs.computation_cost("a", "r1")
        assert model.computation_cost("a", "r1") == pytest.approx(expected)

    def test_falls_back_to_operation_average_for_unseen_resource(self, diamond_costs):
        history = PerformanceHistoryRepository()
        history.record_execution("task", "r1", 50.0)
        model = HistoryAdjustedCostModel(diamond_costs, history)
        assert model.computation_cost("a", "r2") == pytest.approx(50.0)

    def test_communication_costs_untouched(self, diamond_costs):
        history = PerformanceHistoryRepository()
        history.record_execution("task", "r1", 50.0)
        model = HistoryAdjustedCostModel(diamond_costs, history)
        assert model.communication_cost("a", "c", "r1", "r2") == pytest.approx(3.0)
        assert model.average_communication_cost("a", "c") == pytest.approx(3.0)

    def test_estimation_matrix_shape(self, diamond_workflow, diamond_costs):
        predictor = Predictor(PerformanceHistoryRepository())
        matrix = predictor.estimation_matrix(diamond_costs, ["r1", "r2"])
        assert matrix.shape == (4, 2)
        assert matrix[0, 0] == pytest.approx(2.0)
        history = PerformanceHistoryRepository()
        history.record_execution("task", "r1", 7.0, job_id="a")
        history.record_execution("task", "r2", 3.3, job_id="b", estimated=2.0)
        resources = ["r2", "r1", "r2"]
        for mode in ("absolute", "ratio"):
            predictor = Predictor(history, blend=0.7, mode=mode)
            matrix = predictor.estimation_matrix(diamond_costs, resources)
            model = predictor.estimate(diamond_costs)
            scalar = [
                [model.computation_cost(job, rid) for rid in resources]
                for job in diamond_workflow.jobs
            ]
            assert np.array_equal(matrix, np.array(scalar)), mode
            assert not np.array_equal(
                matrix, diamond_costs.computation_matrix(resources)
            ), mode

    def test_invalid_blend_rejected(self, diamond_costs):
        with pytest.raises(ValueError):
            HistoryAdjustedCostModel(diamond_costs, PerformanceHistoryRepository(), blend=2.0)
