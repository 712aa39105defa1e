"""The generated float kernel equals the plain stepping loop, bit for bit.

``repro.fluid.dde`` compiles its scalar loop once per state dimension
from a source template.  :mod:`tests.fluid.reference` keeps the loop it
replaced, lists walked with ``zip``; over dimensions 1-6, both methods,
start times off zero and every kind of lag (none, zero, inside the step,
not a multiple of it, past the whole run) the two must produce the same
grid and the same trajectory bytes — NaN and infinity included.
"""

import pytest

from repro.fluid.dde import integrate_dde_floats

from .reference import integrate_floats

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def coupled(gain):
    """A float-contract rhs of any dimension mixing components, xd and t."""

    def rhs(t, x, xd):
        xd = x if xd is None else xd
        n = len(x)
        return [gain * x[i] * xd[i - 1] - 0.5 * xd[(i + 1) % n] + 0.01 * t
                for i in range(n)]

    return rhs


@st.composite
def problems(draw):
    dim = draw(st.integers(1, 6))
    dt = draw(st.floats(0.01, 0.3))
    n_steps = draw(st.integers(3, 80))
    t0 = draw(st.sampled_from([0.5, -1.3, 7.25]))
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    lag = draw(st.one_of(
        st.none(),
        st.just(0.0),
        st.floats(0.01, 0.99).map(lambda f: f * dt),  # inside the step
        st.floats(1.0, 12.0).map(lambda f: f * dt),  # not a multiple
        st.floats(1.0, 50.0).map(lambda f: (n_steps + f) * dt),  # past it
    ))
    method = draw(st.sampled_from(["rk4", "euler"]))
    gain = draw(st.floats(-1.0, 1.0))
    return gain, x0, (t0, t0 + n_steps * dt), dt, method, lag


@settings(deadline=None)
@given(problems())
# the state overflows to +-inf within a few steps, then inf - inf is NaN
@example((1e300, [1.0, -2.0, 0.5], (0.5, 3.5), 0.1, "rk4", 0.437))
@example((1e300, [1.5, -1.0], (-1.3, 1.7), 0.1, "euler", 0.03))
def test_generated_kernel_equals_reference_loop(problem):
    gain, x0, t_span, dt, method, lag = problem
    sol = integrate_dde_floats(coupled(gain), x0, t_span, dt, method, lag)
    ref = integrate_floats(coupled(gain), x0, t_span, dt, method, lag)
    assert sol.t.shape == ref.t.shape and sol.y.shape == ref.y.shape
    assert sol.t.tobytes() == ref.t.tobytes()
    assert sol.y.tobytes() == ref.y.tobytes()
