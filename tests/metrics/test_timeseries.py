"""Tests for the time-series metrics."""

import pytest

from repro.metrics.timeseries import ascii_series, settling_time


class TestSettlingTime:
    def test_immediate_settle(self):
        times = [0, 1, 2, 3, 4]
        series = [10, 10, 10, 10, 10]
        assert settling_time(times, series, 10.0, hold=3) == 0

    def test_settles_after_transient(self):
        times = list(range(8))
        series = [1, 2, 30, 10, 10, 10, 10, 10]
        assert settling_time(times, series, 10.0, tolerance=0.2, hold=3) == 3

    def test_never_settles(self):
        times = list(range(5))
        series = [1, 100, 1, 100, 1]
        assert settling_time(times, series, 10.0) is None

    def test_relapse_moves_settling_later(self):
        # settles, relapses, settles again: the final entry counts
        times = list(range(10))
        series = [10, 10, 10, 10, 50, 50, 10, 10, 10, 10]
        assert settling_time(times, series, 10.0, hold=3) == 6

    def test_hold_requirement(self):
        times = list(range(4))
        series = [10, 10, 1, 1]
        assert settling_time(times, series, 10.0, hold=3) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            settling_time([0], [1, 2], 1.0)
        with pytest.raises(ValueError):
            settling_time([0], [1], 1.0, tolerance=1.5)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            settling_time([0], [1], 0.0)  # the band is relative to target


class TestAsciiSeries:
    def test_shape(self):
        out = ascii_series([1, 2, 3, 4, 5], width=5, height=4, label="demo")
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 1 + 5 + 1  # label + (height+1) rows + axis
        assert "*" in out

    def test_handles_flat_and_empty(self):
        assert "no data" in ascii_series([], label="x ")
        out = ascii_series([2.0, 2.0, 2.0])
        assert "*" in out  # flat series still renders
