"""Spectral validation of Theorem 2's PI gain schedule."""

import pytest

from repro.fluid import make_fluid_model
from repro.fluid.spectrum import rightmost_root
from repro.fluid.stability import pert_pi_gains

C, N_MINUS, R_PLUS = 100.0, 5, 0.2


def gains():
    return pert_pi_gains(capacity=C, n_minus=N_MINUS, r_plus=R_PLUS)


def test_linearization_structure():
    k, m = gains()
    model = make_fluid_model("pert_pi", capacity=C, n_flows=N_MINUS, rtt=0.1,
                             k=k, m=m, tq_ref=0.05)
    A, B = model.linearization()
    assert A.shape == (3, 3) and B.shape == (3, 3)
    # only the window equation carries the delay
    assert (B[1:] == 0).all()
    # PI integrator path: p responds to Tq
    assert A[2, 1] == pytest.approx(k / m)


@pytest.mark.parametrize("n_flows", [5, 10, 20])
@pytest.mark.parametrize("rtt", [0.05, 0.1, 0.2])
def test_theorem2_gains_stable_over_guaranteed_region(n_flows, rtt):
    """Theorem 2: (k, m) from eq. (21) stabilise all N >= N-, R* <= R+."""
    k, m = gains()
    model = make_fluid_model("pert_pi", capacity=C, n_flows=n_flows, rtt=rtt,
                             k=k, m=m, tq_ref=0.05)
    root = rightmost_root(*model.linearization(), model.rtt)
    assert root.real < 0


def test_overdriven_gain_destabilises():
    """Sanity: the schedule matters — a 10x larger K loses stability."""
    k, m = gains()
    model = make_fluid_model("pert_pi", capacity=C, n_flows=N_MINUS,
                             rtt=R_PLUS, k=k * 10.0, m=m, tq_ref=0.05)
    root = rightmost_root(*model.linearization(), model.rtt, m=40)
    assert root.real > 0


def test_spectral_agrees_with_trajectory():
    from repro.fluid.stability import trajectory_is_stable

    k, m = gains()
    model = make_fluid_model("pert_pi", capacity=C, n_flows=N_MINUS, rtt=0.1,
                             k=k, m=m, tq_ref=0.05, clamp=True)
    sol = model.simulate(duration=120.0, dt=2e-3)
    assert trajectory_is_stable(sol, settle_fraction=0.6)
    assert rightmost_root(*model.linearization(), model.rtt).real < 0
