"""Unit tests for the smoothed-RTT signals."""

import pytest

from repro.core.srtt import EwmaRtt, MovingAverageRtt


class TestEwmaRtt:
    def test_first_sample_initialises(self):
        e = EwmaRtt(weight=0.99)
        assert e.update(0.1) == pytest.approx(0.1)

    def test_ewma_formula(self):
        e = EwmaRtt(weight=0.9)
        e.update(0.1)
        assert e.update(0.2) == pytest.approx(0.9 * 0.1 + 0.1 * 0.2)

    def test_heavier_history_weight_is_smoother(self):
        fast = EwmaRtt(weight=0.5)
        slow = EwmaRtt(weight=0.99)
        for estimator in (fast, slow):
            estimator.update(0.1)
            for _ in range(10):
                estimator.update(0.3)
        assert slow.value < fast.value  # 0.99 moves far less per sample

    def test_converges_to_constant_signal(self):
        e = EwmaRtt(weight=0.99)
        for _ in range(2000):
            e.update(0.25)
        assert e.value == pytest.approx(0.25, rel=1e-6)

    def test_min_rtt_tracked(self):
        e = EwmaRtt()
        for s in (0.3, 0.1, 0.2):
            e.update(s)
        assert e.min_rtt == pytest.approx(0.1)

    def test_queuing_delay_is_srtt_minus_min(self):
        e = EwmaRtt(weight=0.0)  # srtt == last sample
        e.update(0.1)
        e.update(0.15)
        assert e.queuing_delay == pytest.approx(0.05)

    def test_queuing_delay_never_negative(self):
        e = EwmaRtt(weight=0.99)
        e.update(0.3)
        e.update(0.1)  # min drops below the smoothed value
        assert e.queuing_delay >= 0.0

    def test_queuing_delay_zero_before_samples(self):
        assert EwmaRtt().queuing_delay == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            EwmaRtt(weight=1.0)
        with pytest.raises(ValueError):
            EwmaRtt().update(0.0)

    def test_reset(self):
        e = EwmaRtt()
        e.update(0.1)
        e.reset()
        assert e.value is None and e.samples == 0


class TestMovingAverageRtt:
    def test_mean_of_window(self):
        m = MovingAverageRtt(window=3)
        for s in (0.1, 0.2, 0.3):
            m.update(s)
        assert m.value == pytest.approx(0.2)

    def test_window_slides(self):
        m = MovingAverageRtt(window=2)
        for s in (0.1, 0.2, 0.4):
            m.update(s)
        assert m.value == pytest.approx(0.3)

    def test_partial_window(self):
        m = MovingAverageRtt(window=100)
        m.update(0.5)
        assert m.value == pytest.approx(0.5)

    def test_none_before_samples(self):
        assert MovingAverageRtt().value is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MovingAverageRtt(window=0)
        with pytest.raises(ValueError):
            MovingAverageRtt().update(-1.0)

    def test_running_sum_matches_recompute(self):
        m = MovingAverageRtt(window=5)
        samples = [0.1, 0.25, 0.08, 0.3, 0.12, 0.2, 0.18]
        for s in samples:
            m.update(s)
        assert m.value == pytest.approx(sum(samples[-5:]) / 5)
