"""Unit tests for fairness and statistics helpers."""

import pytest

from repro.metrics.fairness import jain_index
from repro.metrics.stats import histogram_pdf, mean, stdev


class TestJain:
    def test_equal_allocation_is_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_user_takes_all(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_bounds(self):
        xs = [1.0, 7.0, 2.0, 9.0]
        j = jain_index(xs)
        assert 1.0 / len(xs) <= j <= 1.0

    def test_scale_invariant(self):
        xs = [1.0, 2.0, 3.0]
        assert jain_index(xs) == pytest.approx(jain_index([10 * x for x in xs]))

    def test_empty_and_zero(self):
        assert jain_index([]) == 0.0
        assert jain_index([0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == pytest.approx(2.0)
        assert mean([]) == 0.0

    def test_stdev(self):
        assert stdev([2, 2, 2]) == 0.0
        assert stdev([1]) == 0.0
        assert stdev([0, 2]) == pytest.approx(1.0)


class TestHistogram:
    def test_masses_sum_to_one(self):
        pdf = histogram_pdf([0.1, 0.2, 0.7, 0.9], bins=4)
        assert sum(p for _, p in pdf) == pytest.approx(1.0)

    def test_bin_centers(self):
        pdf = histogram_pdf([0.1], bins=2, lo=0.0, hi=1.0)
        assert [c for c, _ in pdf] == [0.25, 0.75]

    def test_out_of_range_clamped_to_edges(self):
        pdf = histogram_pdf([-5.0, 5.0], bins=2)
        assert pdf[0][1] == pytest.approx(0.5)
        assert pdf[1][1] == pytest.approx(0.5)

    def test_empty_input_all_zero(self):
        pdf = histogram_pdf([], bins=3)
        assert all(p == 0.0 for _, p in pdf)

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram_pdf([1.0], bins=0)
        with pytest.raises(ValueError):
            histogram_pdf([1.0], bins=2, lo=1.0, hi=0.0)
