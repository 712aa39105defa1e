"""Fluid fast-forward convergence and warm-started hybrid continuations."""

import pytest

from repro.experiments.common import (run_dumbbell, run_dumbbell_warm,
                                     warm_dumbbell_bytes)
from repro.fluid import make_fluid_model
from repro.hybrid import fluid_fast_forward

KW = dict(rtt=0.04, n_fwd=3, warmup=1.0, seed=3)
BW = 4e6
BG = {"model": "pert_red", "share": 0.4, "n_flows": 8}


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


def test_warm_hybrid_continuation_bit_identical():
    """Fluid-seeded warm start + continuation == cold hybrid run."""
    body = warm_dumbbell_bytes("pert", BW, background=BG, **KW)
    warm = run_dumbbell_warm(body, 3.0)
    cold = run_dumbbell("pert", BW, background=BG, duration=3.0, **KW)
    assert warm == cold
    assert warm.background_pkts == cold.background_pkts > 0
