"""Unit tests for the Figure 1 state-machine scoring."""

import pytest

from repro.predictors.analysis import (
    TransitionCounts,
    coalesce_events,
    false_positive_samples,
    false_positive_times,
    high_to_loss_fraction,
    score_predictor,
)
from repro.predictors.threshold import InstantRttPredictor


def trace_from_states(pattern, dt=0.1, low=0.05, high=0.5):
    """Build a trace whose predictor state (threshold 0.1) is *pattern*."""
    return [(i * dt, high if s else low, 10.0) for i, s in enumerate(pattern)]


PRED = lambda: InstantRttPredictor(0.1)


class TestCoalesce:
    def test_merges_close_events(self):
        assert coalesce_events([1.0, 1.05, 1.4, 3.0], window=0.1) == [1.0, 1.4, 3.0]

    def test_unsorted_input(self):
        assert coalesce_events([3.0, 1.0], window=0.1) == [1.0, 3.0]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            coalesce_events([1.0], window=-1.0)

    def test_empty(self):
        assert coalesce_events([], 0.1) == []


class TestScorePredictor:
    def test_high_period_with_loss_is_transition_2(self):
        # low low HIGH HIGH low ; loss during the high period
        tr = trace_from_states([0, 0, 1, 1, 0])
        counts = score_predictor(PRED(), tr, loss_times=[0.25], coalesce=0.0)
        assert (counts.n2, counts.n4, counts.n5) == (1, 0, 0)
        assert counts.efficiency == 1.0

    def test_high_period_without_loss_is_false_positive(self):
        tr = trace_from_states([0, 1, 1, 0])
        counts = score_predictor(PRED(), tr, loss_times=[], coalesce=0.0)
        assert (counts.n2, counts.n4, counts.n5) == (0, 0, 1)
        assert counts.false_positive_rate == 1.0

    def test_loss_in_low_state_is_false_negative(self):
        tr = trace_from_states([0, 0, 0, 0])
        counts = score_predictor(PRED(), tr, loss_times=[0.15], coalesce=0.0)
        assert (counts.n2, counts.n4, counts.n5) == (0, 1, 0)
        assert counts.false_negative_rate == 1.0

    def test_mixed_periods(self):
        #  A A B B A B B A, losses at 0.25 (first B period) only
        tr = trace_from_states([0, 0, 1, 1, 0, 1, 1, 0])
        counts = score_predictor(PRED(), tr, loss_times=[0.25], coalesce=0.0)
        assert (counts.n2, counts.n4, counts.n5) == (1, 0, 1)
        assert counts.efficiency == pytest.approx(0.5)

    def test_trailing_high_period_counted(self):
        tr = trace_from_states([0, 1, 1])
        counts = score_predictor(PRED(), tr, loss_times=[], coalesce=0.0)
        assert counts.n5 == 1

    def test_trailing_loss_after_samples(self):
        tr = trace_from_states([0, 1])
        counts = score_predictor(PRED(), tr, loss_times=[5.0], coalesce=0.0)
        assert counts.n2 == 1

    def test_separated_losses_in_one_period_score_once(self):
        # one long high period with two separated loss events is one
        # prediction: it scores a single "2"
        tr = trace_from_states([0, 1, 1, 1, 1, 1, 0])
        counts = score_predictor(PRED(), tr, loss_times=[0.2, 0.45],
                                 coalesce=0.1)
        assert (counts.n2, counts.n5) == (1, 0)

    def test_coalescing_merges_loss_bursts(self):
        tr = trace_from_states([0, 1, 1, 0])
        counts = score_predictor(PRED(), tr, loss_times=[0.2, 0.21, 0.22],
                                 coalesce=0.05)
        assert counts.n2 == 1  # one coalesced event, one transition

    def test_empty_trace(self):
        counts = score_predictor(PRED(), [], loss_times=[1.0])
        assert counts.n4 == 1

    def test_metrics_on_zero_counts(self):
        c = TransitionCounts()
        assert c.efficiency == 0.0
        assert c.false_positive_rate == 0.0
        assert c.false_negative_rate == 0.0


def test_high_to_loss_fraction_equiv_to_efficiency():
    tr = trace_from_states([0, 1, 1, 0, 1, 0])
    f = high_to_loss_fraction(PRED(), tr, [0.15], coalesce=0.0)
    c = score_predictor(PRED(), tr, [0.15], coalesce=0.0)
    assert f == c.efficiency


def test_false_positive_times_returns_period_ends():
    tr = trace_from_states([0, 1, 1, 0, 1, 1, 0])
    # loss only in the second high period
    fps = false_positive_times(PRED(), tr, [0.45], coalesce=0.0)
    assert fps == [pytest.approx(0.3)]


def test_false_positive_samples_excludes_near_losses():
    tr = trace_from_states([1, 1, 1, 1])
    fps = false_positive_samples(PRED(), tr, loss_times=[0.15], horizon=0.06)
    # samples at 0.1 and 0.2 fall within the horizon of the loss at 0.15
    assert pytest.approx(0.0) in fps
    assert pytest.approx(0.3) in fps
    assert len(fps) == 2
