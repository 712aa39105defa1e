"""Metric-id grammar and row-flattening helpers (repro.validate.extract)."""

from __future__ import annotations

import pytest

from repro.validate.extract import (
    derive,
    fmt_num,
    headline_metrics,
    metric_id,
    rows_to_metrics,
)


class TestFmtNum:
    def test_integral_floats_print_as_ints(self):
        assert fmt_num(8.0) == "8"
        assert fmt_num(-2.0) == "-2"

    def test_non_integral_floats_use_repr(self):
        assert fmt_num(0.05) == "0.05"
        assert fmt_num(2.5) == "2.5"

    def test_bools_and_strings(self):
        assert fmt_num(True) == "true"
        assert fmt_num("pert") == "pert"
        assert fmt_num(12) == "12"


class TestMetricId:
    def test_plain(self):
        assert metric_id("pert", "jain") == "pert.jain"

    def test_no_prefix(self):
        assert metric_id("", "p", {"delay_ms": 10.0}) == "p@delay_ms=10"

    def test_tags_preserve_order(self):
        assert (
            metric_id("pert", "q", {"bw": 8e6 / 1e6, "rtt": 0.05})
            == "pert.q@bw=8,rtt=0.05"
        )


class TestRowsToMetrics:
    ROWS = [
        {"scheme": "pert", "bandwidth_mbps": 8.0, "norm_queue": 0.1,
         "drop_rate": 0.0},
        {"scheme": "vegas", "bandwidth_mbps": 8.0, "norm_queue": 0.2,
         "drop_rate": 0.001},
    ]

    def test_flatten(self):
        out = rows_to_metrics(
            self.ROWS, metrics=("norm_queue", "drop_rate"),
            keys=("bandwidth_mbps",),
        )
        assert out["pert.norm_queue@bandwidth_mbps=8"] == 0.1
        assert out["vegas.drop_rate@bandwidth_mbps=8"] == 0.001
        assert len(out) == 4

    def test_failed_rows_skipped(self):
        rows = [dict(self.ROWS[0]), dict(self.ROWS[1], failed=True)]
        out = rows_to_metrics(rows, metrics=("norm_queue",),
                              keys=("bandwidth_mbps",))
        assert "vegas.norm_queue@bandwidth_mbps=8" not in out
        assert len(out) == 1

    def test_custom_prefix_col(self):
        rows = [{"case": "case1", "flow_level": 0.2, "queue_level": 0.8}]
        out = rows_to_metrics(rows, metrics=("flow_level", "queue_level"),
                              prefix_col="case")
        assert out == {"case1.flow_level": 0.2, "case1.queue_level": 0.8}


class TestDerivedIds:
    """Paper orderings as derived ids a min/max band can bound."""

    METRICS = {
        "pert.norm_queue@bw=2": 0.2, "sack-droptail.norm_queue@bw=2": 0.8,
        "pert.norm_queue@bw=8": 0.1, "sack-droptail.norm_queue@bw=8": 0.5,
        "pert.drop_rate@bw=2": 0.0, "sack-droptail.drop_rate@bw=2": 0.0,
        "pert.drop_rate@bw=8": 0.001,
        "pert.jain": 0.9, "vegas.jain": 0.7,
        "srtt_0.99.efficiency": 0.9, "vegas.efficiency": 0.6,
        "agree.queue_ratio@n=10": 1.05,
    }

    def value(self, mid):
        return derive(mid, self.METRICS)

    def test_measured_ids_pass_through(self):
        assert self.value("pert.jain") == 0.9
        assert self.value("agree.queue_ratio@n=10") == 1.05

    def test_ratio_at_a_shared_point(self):
        assert self.value("pert_vs_sack-droptail.norm_queue_ratio@bw=2") == 0.25
        assert self.value("pert_vs_sack-droptail.norm_queue_ratio@bw=8") == 0.2

    def test_zero_over_zero_is_zero_and_x_over_zero_is_huge(self):
        assert self.value("pert_vs_sack-droptail.drop_rate_ratio@bw=2") == 0.0
        metrics = dict(self.METRICS, **{"sack-droptail.drop_rate@bw=8": 0.0})
        assert derive("pert_vs_sack-droptail.drop_rate_ratio@bw=8", metrics) > 1e5

    def test_diff_untagged_and_dotted_prefix(self):
        assert self.value("pert_vs_vegas.jain_diff") == pytest.approx(0.2)
        assert self.value("srtt_0.99_vs_vegas.efficiency_diff") == pytest.approx(0.3)

    def test_sweep_mean_and_mean_as_an_operand(self):
        assert self.value("pert.mean_norm_queue") == pytest.approx(0.15)
        assert self.value("pert_vs_sack-droptail.mean_norm_queue_ratio") \
            == pytest.approx(0.15 / 0.65)

    def test_underivable_ids_are_none_so_their_band_reports_missing(self):
        # operand missing at that point, unknown operation, no such family,
        # a mean of an untagged metric, a plain unmeasured id
        for mid in ("pert_vs_sack-droptail.drop_rate_ratio@bw=8",
                    "pert_vs_vegas.jain_product", "pert.mean_goodput",
                    "pert.mean_jain", "pert.utilization@bw=2"):
            assert self.value(mid) is None, mid


def test_headline_metrics_are_the_four_section4_columns():
    rows = [{"scheme": "pert", "n": 2, "norm_queue": 0.1, "drop_rate": 0.0,
             "utilization": 0.9, "jain": 1.0, "buffer_pkts": 40}]
    assert headline_metrics(rows, keys=("n",)) == {
        "pert.norm_queue@n=2": 0.1, "pert.drop_rate@n=2": 0.0,
        "pert.utilization@n=2": 0.9, "pert.jain@n=2": 1.0}


def test_check_figure_judges_a_derived_band(tmp_path):
    """A band may name a derived id; no figure has to emit it."""
    from repro.validate.bands import Band
    from repro.validate.suite import check_figure
    from repro.validate.verdict import ExpectedFigure, write_expected

    write_expected(ExpectedFigure("fig5", "t", {"quick": {
        "pert_vs_sack-droptail.norm_queue_ratio@bw=2": Band(max=1.0, source="paper"),
        "pert_vs_vegas.goodput_ratio": Band(max=1.0, source="paper"),
    }}), tmp_path / "fig5.json")
    fv = check_figure("fig5", "quick", expected_dir=tmp_path,
                      measurements=TestDerivedIds.METRICS)
    statuses = {c.metric: (c.status, c.measured) for c in fv.checks}
    assert statuses == {
        "pert_vs_sack-droptail.norm_queue_ratio@bw=2": ("pass", 0.25),
        "pert_vs_vegas.goodput_ratio": ("missing", None),
    }
