"""Tests for the spill-matcher control law, estimator, and controller."""

import pytest

from repro.core.spillmatcher.controller import SpillMatcherPolicy
from repro.core.spillmatcher.policy import optimal_from_times, optimal_spill_percent
from repro.core.spillmatcher.rates import RateEstimator, RateObservation


class TestControlLaw:
    def test_balanced_rates_give_half(self):
        assert optimal_spill_percent(1.0, 1.0) == pytest.approx(0.5)

    def test_map_slower_allows_larger_spills(self):
        # p=1, c=3 (map slower): x = c/(p+c) = 0.75 — the fast support
        # thread tolerates big spills and combining improves.
        assert optimal_spill_percent(1.0, 3.0) == pytest.approx(0.75)

    def test_support_slower_capped_at_half(self):
        assert optimal_spill_percent(5.0, 1.0) == pytest.approx(0.5)

    def test_continuity_at_crossover(self):
        just_below = optimal_spill_percent(0.999, 1.0)
        just_above = optimal_spill_percent(1.001, 1.0)
        assert abs(just_below - just_above) < 0.01

    def test_clamping(self):
        assert optimal_spill_percent(1.0, 99.0, max_percent=0.9) == pytest.approx(0.9)
        assert optimal_spill_percent(1.0, 1.0, min_percent=0.6) == pytest.approx(0.6)

    def test_from_times_equivalent(self):
        # T_p=2, T_c=6 for the same spill size: p/c = 3 -> support slower -> 0.5
        assert optimal_from_times(2.0, 6.0) == pytest.approx(0.5)
        # T_p=6, T_c=2: p/c = 1/3 (map slower), x = T_p/(T_p+T_c) = 0.75
        assert optimal_from_times(6.0, 2.0) == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_spill_percent(0.0, 1.0)
        with pytest.raises(ValueError):
            optimal_from_times(1.0, 0.0)
        with pytest.raises(ValueError):
            optimal_spill_percent(1.0, 1.0, min_percent=0.9, max_percent=0.1)


class TestRateEstimator:
    def test_last_observation_mode(self):
        est = RateEstimator()
        est.observe(RateObservation(10.0, 20.0, 100))
        est.observe(RateObservation(30.0, 40.0, 100))
        assert est.produce_time == 30.0
        assert est.consume_time == 40.0

    def test_ratio(self):
        est = RateEstimator()
        assert est.produce_consume_ratio() is None
        est.observe(RateObservation(10.0, 30.0, 100))
        assert est.produce_consume_ratio() == pytest.approx(3.0)

    def test_observation_rates(self):
        obs = RateObservation(produce_time=4.0, consume_time=2.0, size_bytes=100)
        assert obs.produce_rate == pytest.approx(25.0)
        assert obs.consume_rate == pytest.approx(50.0)

    def test_no_estimate_raises(self):
        with pytest.raises(RuntimeError):
            RateEstimator().produce_time


class TestSpillMatcherPolicy:
    def test_first_spill_uses_initial(self):
        policy = SpillMatcherPolicy(initial_percent=0.8)
        assert policy.spill_percent() == 0.8

    def test_adapts_after_observation(self):
        policy = SpillMatcherPolicy(initial_percent=0.8)
        policy.spill_percent()
        policy.observe(produce_work=10.0, consume_work=10.0, size_bytes=100)
        assert policy.spill_percent() == pytest.approx(0.5)

    def test_map_slower_raises_x(self):
        policy = SpillMatcherPolicy(max_percent=1.0)
        policy.observe(produce_work=90.0, consume_work=10.0, size_bytes=100)
        # Map slower: x = T_p/(T_p+T_c) = 0.9
        assert policy.spill_percent() == pytest.approx(0.9)

    def test_degenerate_observation_ignored(self):
        policy = SpillMatcherPolicy(initial_percent=0.7)
        policy.observe(0.0, 10.0, 100)
        assert policy.spill_percent() == 0.7

    def test_per_spill_adaptation_history(self):
        policy = SpillMatcherPolicy()
        for i in range(3):
            policy.spill_percent()
            policy.observe(10.0 + i, 10.0, 100)
        assert len(policy.history) == 3

    def test_ratio_exposed_for_engine(self):
        policy = SpillMatcherPolicy()
        policy.observe(10.0, 20.0, 100)
        assert policy.produce_consume_ratio() == pytest.approx(2.0)
