"""Fluid fast-forward convergence."""

import pytest

from repro.fluid import make_fluid_model
from repro.hybrid import fluid_fast_forward


def test_fast_forward_settles_at_equilibrium():
    model = make_fluid_model("pert_red", capacity=400.0, n_flows=10,
                             rtt=0.06)
    steady = fluid_fast_forward(model)
    # starting from the analytic equilibrium, a stable model never moves
    assert steady.converged
    assert steady.rate_pps == pytest.approx(steady.equilibrium_pps, rel=1e-3)
    assert steady.equilibrium_pps == pytest.approx(400.0)


def test_fast_forward_explicit_horizon_integrates_once():
    model = make_fluid_model("pert_red", capacity=300.0, n_flows=6, rtt=0.05)
    steady = fluid_fast_forward(model, horizon=5.0)
    assert steady.horizon == 5.0
    assert steady.trajectory.duration == pytest.approx(5.0)


def test_fast_forward_all_models():
    for name in ("pert_red", "tcp_red", "pert_pi"):
        model = make_fluid_model(name, capacity=500.0, n_flows=10, rtt=0.06)
        steady = fluid_fast_forward(model, horizon=10.0)
        assert steady.rate_pps == pytest.approx(500.0, rel=0.05), name

