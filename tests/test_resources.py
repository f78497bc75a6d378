"""Tests for the resource model: resources, pools and the (R, Δ, δ) dynamics."""

import pytest

from repro.resources.dynamics import ResourceChangeModel, StaticResourceModel
from repro.resources.pool import PoolEvent, ResourcePool
from repro.resources.resource import Resource


class TestResource:
    def test_defaults(self):
        res = Resource("r1")
        assert res.available_from == 0.0
        assert res.is_available_at(0.0)
        assert res.is_available_at(1e9)

    def test_joining_later(self):
        res = Resource("r2", available_from=10.0)
        assert not res.is_available_at(5.0)
        assert res.is_available_at(10.0)

    def test_leaving(self):
        res = Resource("r3", available_from=0.0, available_until=20.0)
        assert res.is_available_at(19.9)
        assert not res.is_available_at(20.0)

    def test_negative_join_time_rejected(self):
        with pytest.raises(ValueError):
            Resource("r", available_from=-1.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            Resource("r", available_from=5.0, available_until=5.0)


class TestResourcePool:
    def test_add_and_query(self, growing_pool):
        assert len(growing_pool) == 6
        assert "r1" in growing_pool
        assert growing_pool.resource("r5").available_from == 30.0

    def test_duplicate_rejected(self):
        pool = ResourcePool([Resource("r1")])
        with pytest.raises(ValueError, match="duplicate"):
            pool.add(Resource("r1"))

    def test_available_at_respects_join_times(self, growing_pool):
        assert growing_pool.available_at(0.0) == ["r1", "r2", "r3", "r4"]
        assert "r5" in growing_pool.available_at(30.0)
        assert "r6" not in growing_pool.available_at(30.0)
        assert len(growing_pool.available_at(100.0)) == 6

    def test_initial_resources(self, growing_pool):
        assert growing_pool.initial_resources() == ["r1", "r2", "r3", "r4"]

    def test_joined_in_window(self, growing_pool):
        assert growing_pool.joined_in(0.0, 40.0) == ["r5"]
        assert growing_pool.joined_in(30.0, 100.0) == ["r6"]

    def test_events_sorted_and_aggregated(self, growing_pool):
        events = growing_pool.events()
        assert [e.time for e in events] == [30.0, 60.0]
        assert events[0].added == ("r5",)
        assert events[0].is_addition and not events[0].is_removal

    def test_events_until_filter(self, growing_pool):
        events = growing_pool.events(until=30.0)
        assert len(events) == 1

    def test_removal_events(self):
        pool = ResourcePool([Resource("r1", available_until=50.0), Resource("r2")])
        events = pool.events()
        assert events[0].removed == ("r1",)

    def test_snapshot_and_restrict(self, growing_pool):
        snap = growing_pool.snapshot(0.0)
        assert len(snap) == 4
        restricted = growing_pool.restricted_to(["r1", "r6"])
        assert restricted.all_resource_ids() == ["r1", "r6"]

    def test_extended_with(self, growing_pool):
        bigger = growing_pool.extended_with([Resource("extra")])
        assert "extra" in bigger
        assert "extra" not in growing_pool


class TestPoolEvent:
    def test_requires_content(self):
        event = PoolEvent(time=1.0, added=("r1",))
        assert event.is_addition


class TestResourceChangeModel:
    def test_pool_growth_per_interval(self, change_model):
        pool = change_model.build_pool()
        assert len(pool.available_at(0.0)) == 4
        # ceil(0.25 * 4) = 1 new resource per event
        assert len(pool.available_at(25.0)) == 5
        assert len(pool.available_at(51.0)) == 6

    def test_added_per_event_rounds_up(self):
        model = ResourceChangeModel(initial_size=10, interval=100, fraction=0.11)
        assert model.added_per_event == 2  # ceil(1.1)

    def test_zero_fraction_means_static(self):
        model = ResourceChangeModel(initial_size=5, interval=100, fraction=0.0, max_events=3)
        pool = model.build_pool()
        assert len(pool) == 5
        assert pool.events() == []

    def test_max_events_bounds_pool(self):
        model = ResourceChangeModel(initial_size=2, interval=10, fraction=0.5, max_events=3)
        pool = model.build_pool()
        assert len(pool) == 2 + 3 * 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ResourceChangeModel(initial_size=0, interval=10, fraction=0.1)
        with pytest.raises(ValueError):
            ResourceChangeModel(initial_size=1, interval=0, fraction=0.1)
        with pytest.raises(ValueError):
            ResourceChangeModel(initial_size=1, interval=10, fraction=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["interval", "fraction", "leave_fraction"])
    def test_non_finite_parameters_rejected(self, name, value):
        kwargs = {"initial_size": 10, "interval": 120, "fraction": 0.15, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ResourceChangeModel(**kwargs)

    def test_leave_fraction_creates_bounded_windows(self):
        model = ResourceChangeModel(
            initial_size=4, interval=10, fraction=0.25, leave_fraction=0.25, max_events=2
        )
        pool = model.build_pool()
        leaving = [
            rid
            for rid in pool.all_resource_ids()
            if pool.resource(rid).available_until is not None
        ]
        assert leaving  # some resource departs in the extension model

    def test_describe_mentions_parameters(self, change_model):
        text = change_model.describe()
        assert "R=4" in text and "Δ=25" in text


class TestStaticResourceModel:
    def test_builds_fixed_pool(self):
        pool = StaticResourceModel(size=7).build_pool()
        assert len(pool) == 7
        assert pool.events() == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            StaticResourceModel(size=0)
