"""fig8's fluid overlay on hand-built rows: no simulation runs."""

import pytest

from repro.core.config import PertConfig
from repro.experiments import fig8_nflows
from repro.experiments.sweep import failed_row
from repro.fluid import make_fluid_model
from repro.validate.extract import derive

BANDWIDTH, RTT, PKT_SIZE = 8e6, 0.06, 1000  # PKT_SIZE: run_dumbbell's default
SWEEP = fig8_nflows.spec(flow_counts=[2, 12], bandwidth=BANDWIDTH, rtt=RTT)


def _row(n, scheme, mean_queue_pkts):
    return dict(n_fwd=n, scheme=scheme, norm_queue=0.1, drop_rate=0.0,
                utilization=1.0, jain=1.0, mean_queue_pkts=mean_queue_pkts,
                buffer_pkts=60)


def _overlaid():
    rows = [_row(2, "pert", 3.5), _row(2, "vegas", 9.0),
            failed_row("pert", {"n_fwd": 12}, "worker died")]
    return fig8_nflows.fluid_overlay(SWEEP, rows)


def test_fluid_qdelay_is_the_models_equilibrium():
    curve = PertConfig()
    model = make_fluid_model(
        "pert_red", capacity=BANDWIDTH / (8 * PKT_SIZE), n_flows=2, rtt=RTT,
        t_min=curve.t_min, t_max=curve.t_max, p_max=curve.p_max,
        beta_decrease=curve.early_decrease, clamp=True)
    metrics = fig8_nflows.validation_metrics(_overlaid())
    assert metrics["fluid.qdelay@n_fwd=2"] == model.equilibrium()[2] * 1e3
    # eq. (9) with β = 0.35 by hand: W* = RC/N = 30 packets,
    # p* = 1/(β W*²), q* = T_min + p* (T_max - T_min) / p_max
    p_star = 1 / (0.35 * 30**2)
    assert metrics["fluid.qdelay@n_fwd=2"] == pytest.approx(
        (0.005 + p_star * 0.005 / 0.05) * 1e3, rel=1e-12)


def test_pert_qdelay_is_the_mean_queue_at_the_service_time():
    metrics = fig8_nflows.validation_metrics(_overlaid())
    assert metrics["pert.qdelay@n_fwd=2"] == 3.5 * 8 * PKT_SIZE / BANDWIDTH * 1e3
    assert metrics["pert.qdelay@n_fwd=2"] == pytest.approx(3.5)  # 1 ms a packet


def test_the_ratio_resolves_as_a_derived_id():
    metrics = fig8_nflows.validation_metrics(_overlaid())
    assert derive("pert_vs_fluid.qdelay_ratio@n_fwd=2", metrics) == (
        metrics["pert.qdelay@n_fwd=2"] / metrics["fluid.qdelay@n_fwd=2"])


def test_only_pert_rows_that_ran_are_overlaid():
    pert, vegas, failed = _overlaid()
    assert {"qdelay_ms", "fluid_qdelay_ms"} <= set(pert)
    assert "qdelay_ms" not in vegas and "qdelay_ms" not in failed
    metrics = fig8_nflows.validation_metrics([pert, vegas, failed])
    assert not [m for m in metrics if "qdelay" in m and m.endswith("=12")]
    assert derive("pert_vs_fluid.qdelay_ratio@n_fwd=12", metrics) is None
    (_, _, rows), (_, columns, overlay) = fig8_nflows.tables([pert, vegas, failed])
    assert overlay == [pert] and set(columns) <= set(pert)
