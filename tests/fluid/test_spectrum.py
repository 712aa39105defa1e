"""Unit tests for the spectral (Chebyshev) DDE stability analysis."""

import math

import numpy as np
import pytest

from repro.fluid import make_fluid_model
from repro.fluid.spectrum import (
    cheb,
    rightmost_root,
    spectral_boundary,
)

FIG13 = dict(capacity=100.0, n_flows=5, p_max=0.1, t_min=0.05, t_max=0.1,
             alpha=0.99, delta=1e-4)


def pert_red(**params):
    """``rtt -> model``: ``pert_red`` at Figure 13's parameters plus *params*."""
    return lambda rtt: make_fluid_model("pert_red", rtt=rtt, **FIG13, **params)


class TestCheb:
    def test_nodes_span_and_order(self):
        D, x = cheb(8)
        assert x[0] == pytest.approx(1.0)
        assert x[-1] == pytest.approx(-1.0)
        assert all(a > b for a, b in zip(x, x[1:]))

    def test_differentiates_polynomial_exactly(self):
        D, x = cheb(10)
        f = x**3
        assert np.allclose(D @ f, 3 * x**2, atol=1e-10)

    def test_degenerate_order_zero(self):
        D, x = cheb(0)
        assert D.shape == (1, 1)


class TestRightmostRoot:
    def test_ode_case_matches_eigenvalues(self):
        A = np.array([[-2.0, 1.0], [0.0, -3.0]])
        r = rightmost_root(A, np.zeros((2, 2)), tau=0.5)
        assert r.real == pytest.approx(-2.0, abs=1e-8)

    def test_zero_delay_reduces_to_a_plus_b(self):
        A = np.array([[-1.0]])
        B = np.array([[0.5]])
        r = rightmost_root(A, B, tau=0.0)
        assert r.real == pytest.approx(-0.5)

    def test_hayes_scalar_boundary_at_pi_over_two(self):
        """x' = -k x(t-1) is stable iff k < pi/2."""
        for k, stable in ((1.0, True), (1.5, True), (1.65, False), (3.0, False)):
            r = rightmost_root(np.array([[0.0]]), np.array([[-k]]), tau=1.0)
            assert (r.real < 0) == stable, (k, r)

    def test_known_exact_root(self):
        """x' = -x(t-1): rightmost roots satisfy s = -e^{-s}.

        The dominant pair is s ~ -0.3181 +/- 1.3372j.
        """
        r = rightmost_root(np.array([[0.0]]), np.array([[-1.0]]), tau=1.0)
        assert r.real == pytest.approx(-0.3181, abs=1e-3)
        assert abs(r.imag) == pytest.approx(1.3372, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            rightmost_root(np.zeros((2, 2)), np.zeros((1, 1)), tau=1.0)
        with pytest.raises(ValueError):
            rightmost_root(np.zeros((1, 1)), np.zeros((1, 1)), tau=-1.0)


class TestPertRedSpectrum:
    def test_linearization_shapes_and_structure(self):
        model = make_fluid_model("pert_red", rtt=0.1, **FIG13)
        A, B = model.linearization()
        assert A.shape == (3, 3) and B.shape == (3, 3)
        # queue eq couples only to the instantaneous window
        assert A[1, 0] == pytest.approx(model.n_flows /
                                        (model.rtt * model.capacity))
        # the delayed curve term drives the window
        assert B[0, 2] < 0

    def test_agrees_with_trajectory_classification(self):
        from repro.fluid.stability import trajectory_is_stable

        # 100/160/171 ms are Figure 13(b-d)'s delays: the root's sign must
        # flip where the paper observes the trajectory go unstable
        for rtt in (0.10, 0.16, 0.171, 0.18):
            model = make_fluid_model("pert_red", rtt=rtt, **FIG13)
            root = rightmost_root(*model.linearization(), model.rtt)
            traj = trajectory_is_stable(model.simulate(60.0, dt=2e-3))
            assert (root.real < 0) == traj, rtt

    def test_boundary_near_paper_observation(self):
        """Linear boundary ~166 ms; the paper observes instability at 171 ms
        (and notes Theorem 1's boundary is not exact)."""
        b = spectral_boundary(pert_red(), 0.1, 0.2)
        assert b == 0.16586914062500002

    def test_self_delay_approximation_extends_boundary(self):
        """Paper Sec. 5.3: with W(t-R) ~ W(t) instability moves to ~175 ms."""
        b_full = spectral_boundary(pert_red(), 0.1, 0.2)
        b_approx = spectral_boundary(
            pert_red(approximate_self_delay=True), 0.1, 0.25)
        assert b_approx > b_full
        assert b_approx == 0.17276611328125

    def test_boundary_bracket_validation(self):
        with pytest.raises(ValueError):
            spectral_boundary(pert_red(), 0.19, 0.25)
        with pytest.raises(ValueError):
            spectral_boundary(pert_red(), 0.05, 0.08)


def test_fluid_n_of_t_step_shifts_equilibrium():
    """Doubling N(t) at runtime halves the equilibrium window (eq. 9)."""
    model = make_fluid_model(
        "pert_red", rtt=0.1, n_of_t=lambda t: 5.0 if t < 60 else 10.0, **FIG13)
    sol = model.simulate(duration=120.0, dt=2e-3)
    w_before = sol(55.0)[0]
    w_after = sol(118.0)[0]
    assert w_before == pytest.approx(2.0, rel=0.05)  # RC/N = 2
    assert w_after == pytest.approx(1.0, rel=0.1)  # N doubled


@pytest.mark.parametrize("name, params", [
    ("pert_red", {"beta_decrease": 0.5}),
    ("pert_red", {"beta_decrease": 0.35}),
    ("pert_red", {"beta_decrease": 0.5, "approximate_self_delay": True}),
    ("pert_red", {"beta_decrease": 0.35, "approximate_self_delay": True}),
    ("tcp_red", {}),
    ("pert_pi", {"k": 0.05, "m": 0.5}),
])
def test_linearization_is_the_rhs_jacobian(name, params):
    """``(A, B)`` equal central differences of ``rhs`` in ``x`` and ``xd``
    at the equilibrium: the one Jacobian is that of the one rhs."""
    model = make_fluid_model(name, **params)
    A, B = model.linearization()
    x = np.array(model.equilibrium_state())
    assert np.allclose(model.rhs(0.0, tuple(x), tuple(x)), 0.0, atol=1e-9)

    def jacobian(delayed):
        cols = []
        for j in range(3):
            h = 1e-6 * max(1.0, abs(x[j]))
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            args = ((x, up), (x, down)) if delayed else ((up, x), (down, x))
            f_up, f_down = (np.array(model.rhs(0.0, tuple(a), tuple(d)))
                            for a, d in args)
            cols.append((f_up - f_down) / (2 * h))
        return np.column_stack(cols)

    scale = max(np.abs(A).max(), np.abs(B).max())
    np.testing.assert_allclose(jacobian(False), A, rtol=1e-6, atol=1e-7 * scale)
    np.testing.assert_allclose(jacobian(True), B, rtol=1e-6, atol=1e-7 * scale)
