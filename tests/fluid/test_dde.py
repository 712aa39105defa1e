"""Unit tests for the DDE integrator."""

import math

import numpy as np
import pytest

from repro.fluid.dde import integrate_dde


def test_exponential_decay_matches_closed_form():
    sol = integrate_dde(lambda t, x, xd: -x, [1.0], (0.0, 2.0), dt=1e-3)
    assert sol.y[-1, 0] == pytest.approx(math.exp(-2.0), rel=1e-5)


def test_harmonic_oscillator_energy_conserved():
    def rhs(t, x, xd):
        return np.array([x[1], -x[0]])

    sol = integrate_dde(rhs, [1.0, 0.0], (0.0, 10.0), dt=1e-3)
    energy = sol.y[:, 0] ** 2 + sol.y[:, 1] ** 2
    assert np.allclose(energy, 1.0, atol=1e-4)


def test_constant_delay_equation_hayes():
    """x'(t) = -x(t-1) with x0=1: classic DDE with known early segments.

    On [0,1] the history is the constant 1, so x(t) = 1 - t.
    On [1,2], x'(t) = -(1-(t-1)) giving x(t) = 1 - t + (t-1)^2/2.
    """
    sol = integrate_dde(lambda t, x, xd: -xd, [1.0], (0.0, 2.0), dt=1e-3,
                        lag=1.0)
    assert sol(0.5)[0] == pytest.approx(0.5, abs=1e-3)
    t = 1.5
    assert sol(t)[0] == pytest.approx(1 - t + (t - 1) ** 2 / 2, abs=1e-3)


def test_pre_history_is_constant_initial_state():
    seen = []

    def rhs(t, x, xd):
        seen.append(xd[0])
        return np.array([0.0])

    integrate_dde(rhs, [3.0], (0.0, 0.1), dt=0.01, lag=5.0)
    assert all(v == 3.0 for v in seen)


def test_euler_vs_rk4_consistency():
    rhs = lambda t, x, xd: -x
    fine = integrate_dde(rhs, [1.0], (0.0, 1.0), dt=1e-4, method="euler")
    rk = integrate_dde(rhs, [1.0], (0.0, 1.0), dt=1e-2, method="rk4")
    assert fine.y[-1, 0] == pytest.approx(rk.y[-1, 0], rel=1e-3)


def test_solution_interpolation_and_clamping():
    sol = integrate_dde(lambda t, x, xd: np.array([1.0]), [0.0], (0.0, 1.0), dt=0.1)
    assert sol(0.55)[0] == pytest.approx(0.55, abs=1e-9)
    assert sol(-1.0)[0] == 0.0  # clamped to start
    assert sol(99.0)[0] == pytest.approx(1.0)  # clamped to end


def test_solution_call_never_hands_out_a_view_of_the_trajectory():
    sol = integrate_dde(lambda t, x, xd: np.array([1.0]), [0.0], (0.0, 1.0), dt=0.1)
    for ti in (-1.0, 0.0, 0.55, 1.0, 99.0):
        sol(ti)[0] = 1e9
    assert sol.y[0, 0] == 0.0 and sol.y[-1, 0] == pytest.approx(1.0)


def test_component_accessor():
    sol = integrate_dde(lambda t, x, xd: np.array([1.0, 2.0]), [0.0, 0.0],
                        (0.0, 1.0), dt=0.1)
    assert sol.component(1)[-1] == pytest.approx(2.0)


def test_validation():
    rhs = lambda t, x, xd: -x
    with pytest.raises(ValueError):
        integrate_dde(rhs, [1.0], (0.0, 1.0), dt=0.0)
    with pytest.raises(ValueError):
        integrate_dde(rhs, [1.0], (1.0, 0.0), dt=0.1)
    with pytest.raises(ValueError):
        integrate_dde(rhs, [1.0], (0.0, 1.0), dt=0.1, method="heun")


def test_solution_call_at_nan_names_the_query():
    sol = integrate_dde(lambda t, x, xd: np.array([1.0]), [0.0], (0.0, 0.5), dt=0.001)
    for nan in (float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="t=.*nan"):
            sol(nan)
