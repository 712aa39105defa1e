"""Tests for the generalized decrease factor β (paper Sec. 5.1 remark)."""

import pytest

from repro.fluid import make_fluid_model
from repro.fluid.spectrum import spectral_boundary

FIG13 = dict(capacity=100.0, n_flows=5, p_max=0.1, t_min=0.05, t_max=0.1,
             alpha=0.99, delta=1e-4)


def test_equilibrium_recovers_eq9_at_half():
    m = make_fluid_model("pert_red", rtt=0.1, beta_decrease=0.5, **FIG13)
    w, p, _ = m.equilibrium()
    assert p == pytest.approx(2.0 * 25 / (0.01 * 10000))  # 2N^2/(RC)^2


def test_equilibrium_probability_scales_inversely_with_beta():
    p_05, p_035 = (
        make_fluid_model("pert_red", rtt=0.1, beta_decrease=beta,
                         **FIG13).equilibrium()[1]
        for beta in (0.5, 0.35)
    )
    assert p_035 == pytest.approx(p_05 * 0.5 / 0.35)


def test_trajectory_converges_to_beta_equilibrium():
    m = make_fluid_model("pert_red", rtt=0.1, beta_decrease=0.35, **FIG13)
    sol = m.simulate(duration=40.0, dt=2e-3)
    w_star, _, tq_star = m.equilibrium()
    assert sol.y[-1, 0] == pytest.approx(w_star, rel=0.02)
    assert sol.y[-1, 2] == pytest.approx(tq_star, rel=0.05)


def test_gentler_decrease_widens_stability_region():
    """PERT's 35 % decrease is *more* stable than halving — the paper's
    design choice (Sec. 3) also helps the control loop."""
    def boundary(beta, hi):
        return spectral_boundary(lambda rtt: make_fluid_model(
            "pert_red", rtt=rtt, beta_decrease=beta, **FIG13), 0.1, hi)

    b_half, b_pert = boundary(0.5, 0.25), boundary(0.35, 0.3)
    assert b_pert > b_half
    assert b_half == 0.16580810546875
    assert b_pert == 0.187255859375


def test_beta_validation():
    with pytest.raises(ValueError):
        make_fluid_model("pert_red", beta_decrease=0.0)
    with pytest.raises(ValueError):
        make_fluid_model("pert_red", beta_decrease=1.0)
