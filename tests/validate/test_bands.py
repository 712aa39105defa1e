"""Unit tests for the tolerance-band model (repro.validate.bands)."""

from __future__ import annotations

import math

import pytest

from repro.validate.bands import Band, MetricCheck, check_metric


class TestBandContains:
    def test_target_with_abs_tol(self):
        band = Band(target=1.0, abs_tol=0.1)
        assert band.contains(1.05)
        assert band.contains(0.95)
        assert not band.contains(1.2)

    def test_target_with_rel_tol(self):
        band = Band(target=10.0, rel_tol=0.05)
        assert band.contains(10.4)
        assert not band.contains(10.6)

    def test_abs_and_rel_combine_additively(self):
        # allowed = abs_tol + rel_tol * |target| = 0.1 + 0.1 = 0.2
        band = Band(target=1.0, abs_tol=0.1, rel_tol=0.1)
        assert band.contains(1.15)
        assert not band.contains(1.25)

    def test_min_bound_inclusive(self):
        band = Band(min=0.5)
        assert band.contains(0.5)
        assert band.contains(2.0)
        assert not band.contains(0.499)

    def test_max_bound_inclusive(self):
        band = Band(max=0.005)
        assert band.contains(0.005)
        assert band.contains(0.0)
        assert not band.contains(0.0051)

    def test_target_and_bounds_all_enforced(self):
        band = Band(target=1.0, rel_tol=0.5, max=1.2)
        assert band.contains(1.2)
        assert not band.contains(1.4)  # within rel_tol but over max

    def test_nan_never_passes(self):
        assert not Band(target=1.0, rel_tol=10.0).contains(math.nan)
        assert not Band(min=-math.inf).contains(math.nan)

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError, match="target"):
            Band()

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            Band(target=1.0, source="vibes")


class TestBandJson:
    def test_round_trip_preserves_everything(self):
        band = Band(target=0.14, abs_tol=1e-9, rel_tol=1e-6,
                    min=0.0, max=1.0, source="paper",
                    known_gap=True, note="Table 1")
        assert Band.from_json(band.to_json()) == band

    def test_defaults_omitted_from_json(self):
        out = Band(target=1.0, source="golden").to_json()
        assert out == {"target": 1.0, "source": "golden"}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown band keys"):
            Band.from_json({"target": 1.0, "tolerance": 0.1})

    def test_describe_is_human_readable(self):
        assert Band(target=0.14, rel_tol=1e-6).describe() == "0.14 ±1e-06r"
        assert Band(max=0.005).describe() == "≤ 0.005"
        assert Band(min=0.5).describe() == "≥ 0.5"


class TestDeviation:
    def test_signed_percent(self):
        band = Band(target=0.1, rel_tol=0.2)
        assert band.deviation_pct(0.115) == pytest.approx(15.0)
        assert band.deviation_pct(0.085) == pytest.approx(-15.0)

    def test_none_without_target_or_at_zero_target(self):
        assert Band(max=1.0).deviation_pct(0.5) is None
        assert Band(target=0.0, abs_tol=0.1).deviation_pct(0.05) is None


class TestCheckMetric:
    def test_pass(self):
        c = check_metric("pert.q", Band(target=1.0, abs_tol=0.1), 1.05)
        assert c.status == "pass" and not c.failed

    def test_fail(self):
        c = check_metric("pert.q", Band(target=1.0, abs_tol=0.1), 2.0)
        assert c.status == "fail" and c.failed

    def test_known_gap_downgrades_fail_to_gap(self):
        band = Band(target=1.0, abs_tol=0.1, known_gap=True)
        assert check_metric("pert.q", band, 2.0).status == "gap"
        assert not check_metric("pert.q", band, 2.0).failed

    @pytest.mark.parametrize("measured, status", [
        (1.05, "closed_gap"), (0.9, "closed_gap"), (1.2, "gap"), (0.5, "gap")])
    def test_a_known_gap_in_band_is_closed_not_passed(self, measured, status):
        band = Band(target=1.0, abs_tol=0.1, source="paper", known_gap=True)
        c = check_metric("pert.jain", band, measured)
        assert c.status == status and not c.failed
        # the same band without the flag: plain pass / fail
        plain = check_metric("pert.jain", Band(target=1.0, abs_tol=0.1), measured)
        assert plain.status == ("pass" if status == "closed_gap" else "fail")

    def test_missing_measurement_fails_the_gate(self):
        c = check_metric("pert.q", Band(target=1.0), None)
        assert c.status == "missing" and c.failed
        assert c.deviation_pct() is None

    def test_check_is_frozen(self):
        c = check_metric("pert.q", Band(target=1.0), 1.0)
        assert isinstance(c, MetricCheck)
        with pytest.raises(AttributeError):
            c.status = "pass"
