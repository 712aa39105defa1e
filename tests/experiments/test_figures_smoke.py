"""Smoke tests: every figure/table module runs end-to-end at tiny scale.

These do not validate the paper claims (``repro.validate``'s bands do, at
the quick and full tiers); they pin the module interfaces — run()
signatures, row schemas — so refactors cannot silently break the
reproduction harness.
"""

import pytest

from repro.experiments import fig5_response_curve, fig13_fluid
from repro.experiments.fig2_loss_correlation import run as fig2_run
from repro.experiments.fig6_bandwidth import run as fig6_run
from repro.experiments.fig7_rtt import run as fig7_run
from repro.experiments.fig8_nflows import run as fig8_run
from repro.experiments.fig9_web import run as fig9_run
from repro.experiments.fig11_multibottleneck import run_parking_lot
from repro.experiments.fig12_dynamics import cohort_share_error, run_dynamics
from repro.experiments.fig14_pert_pi import run as fig14_run
from repro.experiments.section2 import TrafficCase, default_cases
from repro.experiments.table1_rtts import default_rtts, run as table1_run

TINY = dict(duration=10.0, warmup=4.0, seed=1)
METRIC_KEYS = {"norm_queue", "drop_rate", "utilization", "jain"}


def check_rows(rows, extra_keys=()):
    assert rows
    for row in rows:
        assert METRIC_KEYS <= set(row)
        for k in extra_keys:
            assert k in row
        assert 0 <= row["norm_queue"] <= 1
        assert 0 <= row["utilization"] <= 1


def test_fig2_tiny():
    rows = fig2_run(cases=[TrafficCase("t", 4, 2, 2)], bandwidth=8e6,
                    duration=15.0, seed=1)
    assert rows and {"flow_level", "queue_level"} <= set(rows[0])


def test_fig5_rows():
    rows = fig5_response_curve.run(n_points=5)
    assert len(rows) == 5
    assert rows[0]["probability"] == 0.0
    assert rows[-1]["probability"] == 1.0


def test_fig6_tiny():
    rows = fig6_run(bandwidths=[4e6], schemes=("pert",), web_sessions=0,
                    **TINY)
    check_rows(rows, extra_keys=("bandwidth_mbps", "n_fwd"))


def test_fig7_tiny():
    rows = fig7_run(rtts=[0.04], schemes=("pert",), n_fwd=3,
                    bandwidth=8e6, web_sessions=0, base_duration=10.0, seed=1)
    check_rows(rows, extra_keys=("rtt_ms",))


def test_fig8_tiny():
    rows = fig8_run(flow_counts=[2], schemes=("pert",), bandwidth=8e6,
                    web_sessions=0, **TINY)
    check_rows(rows, extra_keys=("n_fwd",))


def test_fig9_tiny():
    rows = fig9_run(session_counts=[2], schemes=("pert",), bandwidth=8e6,
                    n_fwd=3, **TINY)
    check_rows(rows, extra_keys=("web_sessions",))


def test_table1_tiny():
    rows = table1_run(bandwidth=8e6, n_fwd=3, rtts=default_rtts(3),
                      web_sessions=0, schemes=("pert", "vegas"), **TINY)
    check_rows(rows, extra_keys=("paper_Q", "paper_F"))
    assert {r["scheme"] for r in rows} == {"pert", "vegas"}


def test_default_rtts_spacing():
    rtts = default_rtts(10)
    assert rtts[0] == pytest.approx(0.012)
    assert rtts[-1] == pytest.approx(0.120)


def test_fig11_tiny():
    rows = run_parking_lot("pert", n_routers=3, cloud_size=2, link_bw=8e6,
                           duration=12.0, warmup=5.0, seed=1)
    assert len(rows) == 2  # one row per hop
    check_rows(rows, extra_keys=("hop",))


def test_fig12_tiny():
    res = run_dynamics("pert", n_cohorts=2, cohort_size=2, epoch=6.0,
                       bandwidth=8e6, seed=1)
    assert len(res["cohort_rates_bps"]) == 2
    assert len(res["times"]) >= 20
    err = cohort_share_error(res, epoch_index=1)
    assert err >= 0.0


def test_fig12_share_error_validates_epoch():
    res = run_dynamics("pert", n_cohorts=2, cohort_size=2, epoch=6.0,
                       bandwidth=8e6, seed=1)
    with pytest.raises(ValueError):
        cohort_share_error(res, epoch_index=99)


def test_fig13_rows():
    out = fig13_fluid.run(duration=20.0, dt=5e-3)
    assert {r["n_minus"] for r in out["fig13a"]} >= {1, 40}
    assert len(out["fig13bd"]) == 3


def test_fig14_tiny():
    rows = fig14_run(rtts=[0.04], schemes=("pert-pi",), n_fwd=3,
                     bandwidth=8e6, web_sessions=0, base_duration=10.0,
                     seed=1)
    check_rows(rows, extra_keys=("rtt_ms",))


def test_default_cases_grid():
    cases = default_cases()
    assert len(cases) == 6  # the paper's case1..case6 grid
    assert len({c.name for c in cases}) == 6
    assert all(c.n_fwd > 0 and c.web_sessions > 0 for c in cases)
