"""Cross-validation of the DDE integrator against scipy references."""

import numpy as np
import pytest

scipy = pytest.importorskip("scipy")
from scipy.integrate import solve_ivp  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from repro.fluid.dde import integrate_dde  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linear_ode_matches_matrix_exponential(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3))
    A -= 2.0 * np.eye(3)  # shift to keep trajectories bounded
    x0 = rng.normal(size=3)
    sol = integrate_dde(lambda t, x, xd: A @ x, x0, (0.0, 2.0), dt=1e-3)
    exact = expm(A * 2.0) @ x0
    assert np.allclose(sol.y[-1], exact, rtol=1e-5, atol=1e-8)


def test_nonlinear_ode_matches_solve_ivp():
    def rhs(t, x):
        return np.array([x[1], -np.sin(x[0])])  # pendulum

    ours = integrate_dde(lambda t, x, xd: rhs(t, x), [1.0, 0.0], (0.0, 10.0),
                         dt=1e-3)
    ref = solve_ivp(rhs, (0.0, 10.0), [1.0, 0.0], rtol=1e-10, atol=1e-12)
    assert np.allclose(ours.y[-1], ref.y[:, -1], atol=1e-5)


def test_dde_vs_method_of_steps_reference():
    """x'(t) = -x(t-1), x0=1: integrate segment-by-segment with scipy.

    On [k, k+1] the delayed term is the (known) previous segment, so the
    DDE reduces to a chain of ODE solves — an independent reference.
    """
    sol = integrate_dde(lambda t, x, xd: -xd, [1.0], (0.0, 4.0),
                        dt=5e-4, lag=1.0)

    # method of steps with dense scipy segments
    from scipy.interpolate import interp1d

    hist_t = np.array([0.0])
    hist_x = np.array([1.0])
    prev = lambda t: 1.0  # constant pre-history
    x_start = 1.0
    for k in range(4):
        seg = solve_ivp(
            lambda t, x, prev=prev: [-prev(t - 1.0)],
            (k, k + 1.0), [x_start], rtol=1e-10, atol=1e-12,
            dense_output=True,
        )
        ts = np.linspace(k, k + 1.0, 200)
        xs = seg.sol(ts)[0]
        hist_t = np.hstack([hist_t, ts[1:]])
        hist_x = np.hstack([hist_x, xs[1:]])
        interp = interp1d(hist_t, hist_x, fill_value=(1.0, xs[-1]),
                          bounds_error=False)
        prev = lambda t, interp=interp: float(interp(t))
        x_start = xs[-1]

    for t_check in (0.5, 1.5, 2.5, 3.9):
        assert sol(t_check)[0] == pytest.approx(float(interp(t_check)),
                                                abs=2e-4)
