"""Unit tests for the congestion predictors."""

import pytest

from repro.predictors import (
    CardPredictor,
    CimPredictor,
    DualPredictor,
    EwmaRttPredictor,
    InstantRttPredictor,
    MovingAverageRttPredictor,
    TriSPredictor,
    VegasPredictor,
)


def trace(rtts, dt=0.01, cwnd=10.0):
    """Build a per-ACK trace from an RTT sequence."""
    return [(i * dt, r, cwnd) for i, r in enumerate(rtts)]


class TestInstant:
    def test_threshold_crossing(self):
        p = InstantRttPredictor(0.1)
        assert not p.update(0.0, 0.09, 10)
        assert p.update(0.01, 0.11, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            InstantRttPredictor(0.0)


class TestEwma:
    def test_smoothing_suppresses_spikes(self):
        p = EwmaRttPredictor(threshold=0.11, weight=0.99)
        states = [p.update(t, r, 10) for t, r, _ in
                  trace([0.1] * 50 + [0.3] + [0.1] * 50)]
        assert not any(states)  # one spike cannot move srtt_0.99

    def test_sustained_rise_detected(self):
        p = EwmaRttPredictor(threshold=0.15, weight=0.9)
        states = [p.update(t, r, 10) for t, r, _ in
                  trace([0.1] * 20 + [0.3] * 100)]
        assert states[-1]

    def test_name_reflects_weight(self):
        assert EwmaRttPredictor(0.1, weight=0.99).name == "srtt_0.99"


class TestMovingAverage:
    def test_window_mean_thresholding(self):
        p = MovingAverageRttPredictor(threshold=0.2, window=4)
        for t, r, w in trace([0.1, 0.1, 0.3, 0.3]):
            state = p.update(t, r, w)
        assert not state  # mean 0.2 not strictly above
        assert p.update(1.0, 0.35, 10)


class TestCard:
    def test_rising_delay_predicts(self):
        p = CardPredictor()
        states = [p.update(t, r, 10) for t, r, _ in
                  trace([0.1, 0.12, 0.14, 0.16], dt=0.5)]
        assert states[-1]

    def test_falling_delay_clears(self):
        p = CardPredictor()
        for t, r, _ in trace([0.1, 0.2, 0.15, 0.12, 0.1], dt=0.5):
            state = p.update(t, r, 10)
        assert not state

    def test_reset(self):
        p = CardPredictor()
        p.update(0.0, 0.1, 10)
        p.reset()
        assert p._prev_rtt is None


class TestTriS:
    def test_throughput_stall_predicts(self):
        # cwnd grows but throughput falls -> congestion
        p = TriSPredictor()
        samples = [(0.0, 0.1, 10), (0.5, 0.16, 12), (1.0, 0.2, 14)]
        state = False
        for t, r, w in samples:
            state = p.update(t, r, w)
        assert state

    def test_throughput_growth_is_fine(self):
        p = TriSPredictor()
        samples = [(0.0, 0.1, 10), (0.5, 0.1, 12), (1.0, 0.1, 14)]
        state = True
        for t, r, w in samples:
            state = p.update(t, r, w)
        assert not state


class TestDual:
    def test_above_midpoint_predicts(self):
        p = DualPredictor()
        p.update(0.0, 0.1, 10)   # min
        p.update(0.5, 0.3, 10)   # max
        assert p.update(1.0, 0.25, 10)       # above (0.1+0.3)/2
        assert not p.update(2.0, 0.15, 10)   # below midpoint


class TestVegasPredictor:
    def test_backlog_above_beta_predicts(self):
        p = VegasPredictor(beta=3.0)
        p.update(0.0, 0.1, 10)  # establishes base
        # backlog = 20 * (0.2-0.1)/0.2 = 10 > 3
        assert p.update(0.5, 0.2, 20)

    def test_no_queueing_no_prediction(self):
        p = VegasPredictor(beta=3.0)
        p.update(0.0, 0.1, 10)
        assert not p.update(0.5, 0.101, 20)


class TestCim:
    def test_short_above_long_predicts(self):
        p = CimPredictor(short=2, long=6)
        rtts = [0.1] * 6 + [0.3, 0.3]
        state = False
        for t, r, _ in trace(rtts):
            state = p.update(t, r, 10)
        assert state

    def test_insufficient_history_is_low(self):
        p = CimPredictor(short=2, long=10)
        assert not p.update(0.0, 0.5, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            CimPredictor(short=5, long=5)


def test_per_rtt_sampling_gates_updates():
    # DUAL samples once per RTT: rapid-fire samples within one RTT
    # cannot flip the state back and forth.
    p = DualPredictor()
    p.update(0.0, 0.1, 10)
    p.update(0.0001, 0.3, 10)  # within the same RTT window
    state_fast = p._state
    p.update(0.5, 0.3, 10)  # next RTT window
    assert p._state or not state_fast
