"""Unit tests for the Theorem 1/2 stability conditions."""

import math

import pytest

from repro.fluid import make_fluid_model
from repro.fluid.stability import (
    equilibrium,
    find_stability_boundary,
    k_lpf,
    l_pert,
    min_delta,
    omega_g,
    pert_pi_gains,
    scale_invariant_holds,
    theorem1_holds,
    trajectory_is_stable,
)

FIG13A = dict(capacity=1000.0, r_plus=0.2, p_max=0.1, t_min=0.05,
              t_max=0.1, alpha=0.99)


def test_l_pert_matches_curve_slope():
    assert l_pert(0.05, 0.005, 0.010) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        l_pert(0.05, 0.01, 0.01)


def test_k_lpf_negative_and_scales_with_delta():
    assert k_lpf(0.99, 1e-3) < 0
    assert k_lpf(0.99, 1e-3) == pytest.approx(10 * k_lpf(0.99, 1e-2))
    with pytest.raises(ValueError):
        k_lpf(1.0, 1e-3)


def test_omega_g_takes_minimum():
    # 2N/(R^2 C) = 2*1/(0.04*1000)=0.05 < 1/R=5
    assert omega_g(1, 0.2, 1000.0) == pytest.approx(0.1 * 0.05)
    # large N: 1/R binds
    assert omega_g(1000, 0.2, 1000.0) == pytest.approx(0.1 * 5.0)


def test_equilibrium_eq9():
    w, p = equilibrium(capacity=100.0, n_flows=5, rtt=0.1)
    assert w == pytest.approx(2.0)
    assert p == pytest.approx(2 * 25 / (0.01 * 10000))


def test_min_delta_monotone_decreasing_in_n():
    deltas = [min_delta(n_minus=n, **FIG13A) for n in (1, 5, 10, 20, 40)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_min_delta_reaches_point1s_at_n40():
    """Paper Figure 13(a): delta_min ~ 0.1 s as N- goes to 40."""
    d = min_delta(n_minus=40, **FIG13A)
    assert d == pytest.approx(0.1, rel=0.2)


def test_min_delta_zero_when_margin_sufficient():
    # tiny capacity: sqrt argument negative -> any delta is stable
    assert min_delta(capacity=1.0, n_minus=10, r_plus=0.1) == 0.0


def test_theorem1_consistent_with_min_delta():
    params = dict(capacity=1000.0, n_minus=10, r_plus=0.2, p_max=0.1,
                  t_min=0.05, t_max=0.1, alpha=0.99)
    d_min = min_delta(capacity=1000.0, n_minus=10, r_plus=0.2,
                      p_max=0.1, t_min=0.05, t_max=0.1, alpha=0.99)
    assert d_min > 0
    assert theorem1_holds(delta=d_min * 1.01, **params)
    assert not theorem1_holds(delta=d_min * 0.5, **params)


def test_theorem1_easier_with_more_flows():
    base = dict(capacity=1000.0, r_plus=0.2, p_max=0.1, t_min=0.05,
                t_max=0.1, alpha=0.99, delta=0.05)
    assert not theorem1_holds(n_minus=2, **base)
    assert theorem1_holds(n_minus=100, **base)


def test_scale_invariant_condition_independent_of_c():
    # only sigma = C/N and R+ matter; small sigma is stable
    assert scale_invariant_holds(sigma=2.0, r_plus=0.2, p_max=0.1,
                                 t_min=0.05, t_max=0.1, delta=0.01)
    assert not scale_invariant_holds(sigma=500.0, r_plus=0.5, p_max=0.1,
                                     t_min=0.05, t_max=0.1, delta=0.01)


def test_pert_pi_gains_formulas():
    k, m = pert_pi_gains(capacity=100.0, n_minus=5, r_plus=0.2, r_star=0.15)
    assert m == pytest.approx(2 * 5 / (0.04 * 100.0))
    denom = 0.2**3 * 100.0**2 / (2 * 5) ** 2
    assert k == pytest.approx(m * math.hypot(0.15 * m, 1.0) / denom)
    # r_star defaults to r_plus
    k2, _ = pert_pi_gains(capacity=100.0, n_minus=5, r_plus=0.2)
    assert k2 == pytest.approx(m * math.hypot(0.2 * m, 1.0) / denom)


def test_pert_pi_gains_validation():
    with pytest.raises(ValueError):
        pert_pi_gains(capacity=0.0, n_minus=1, r_plus=0.1)


def test_trajectory_classifier_on_known_cases():
    params = dict(capacity=100.0, n_flows=5, p_max=0.1, t_min=0.05,
                  t_max=0.1, alpha=0.99, delta=1e-4)
    stable, unstable = (
        make_fluid_model("pert_red", rtt=rtt, **params).simulate(60.0, dt=2e-3)
        for rtt in (0.10, 0.19)
    )
    assert trajectory_is_stable(stable)
    assert not trajectory_is_stable(unstable)


def test_find_stability_boundary_near_paper_value():
    """The empirical boundary sits near the paper's 171 ms observation."""
    params = dict(capacity=100.0, n_flows=5, p_max=0.1, t_min=0.05,
                  t_max=0.1, alpha=0.99, delta=1e-4)

    def make(r):
        model = make_fluid_model("pert_red", rtt=r, **params)
        return model.simulate(60.0, dt=4e-3)

    boundary = find_stability_boundary(make, lo=0.15, hi=0.18, tol=2e-3)
    assert 0.16 <= boundary <= 0.175


def test_find_stability_boundary_validates_bracket():
    params = dict(capacity=100.0, n_flows=5, p_max=0.1, t_min=0.05,
                  t_max=0.1, alpha=0.99, delta=1e-4)

    def make(r):
        model = make_fluid_model("pert_red", rtt=r, **params)
        return model.simulate(40.0, dt=4e-3)

    with pytest.raises(ValueError):
        find_stability_boundary(make, lo=0.19, hi=0.2, tol=1e-2)
