"""The delayed-state lookup contract of ``repro.fluid.dde``.

Guards for the memoised constant-lag history kernel — one float-native
scalar history (``_FloatHistory``) behind both scalar contracts:

* an independent oracle — a reference integrator whose history is
  ``np.searchsorted`` plus the same interpolation expression and *no*
  memo — that ``integrate_dde`` must equal bit for bit over random
  dimensions, steps, methods and lags (shorter than the step, not a
  multiple of it, longer than the run, two lags alternating, a fixed
  absolute time re-queried after every append);
* lookups are read-only, so an rhs cannot corrupt a result the memo
  hands out again or the stored solution behind a view;
* an exact count: RK4 interpolates at most twice per step, Euler once;
* the two scalar contracts at their seams: what the array adapter hands
  an rhs and accepts from it, what the float kernel does.
"""

from collections import Counter

import numpy as np
import pytest

from repro.fluid import make_fluid_model, simulate_batch
from repro.fluid.dde import (
    _BatchHistory,
    _FloatHistory,
    integrate_dde,
    integrate_dde_batch,
    integrate_dde_floats,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# ----------------------------------------------------------------------
# independent oracle
# ----------------------------------------------------------------------
def oracle_integrate(rhs, x0, t_span, dt, method):
    """``integrate_dde``'s grid and stepping over a searchsorted history."""
    t0, t1 = t_span
    n_steps = int(round((t1 - t0) / dt))
    ts = np.empty(n_steps + 1)
    xs = np.empty((n_steps + 1, len(x0)))
    ts[0], xs[0], n = t0, x0, 1

    def history(ti):
        if ti <= t0:
            return xs[0].copy()
        if ti >= ts[n - 1]:
            return xs[n - 1].copy()
        idx = int(np.searchsorted(ts[:n], ti)) - 1
        frac = (ti - ts[idx]) / (ts[idx + 1] - ts[idx])
        return xs[idx] * (1 - frac) + xs[idx + 1] * frac

    x, t = xs[0].copy(), t0
    for _ in range(n_steps):
        if method == "euler":
            x = x + dt * rhs(t, x, history)
        else:
            k1 = rhs(t, x, history)
            k2 = rhs(t + dt / 2, x + dt / 2 * k1, history)
            k3 = rhs(t + dt / 2, x + dt / 2 * k2, history)
            k4 = rhs(t + dt, x + dt * k3, history)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        ts[n], xs[n] = t, x
        n += 1
    return ts, xs


def make_rhs(lag1, lag2, t_fixed):
    """Bounded delayed dynamics out of exactly-rounded operations only.

    Queries ``t - lag1``, then (when given) ``t - lag2`` and the absolute
    time ``t_fixed``, then ``t - lag1`` again: with both extras the
    one-entry memo is thrashed inside every call; with neither it is hit
    on every repeat and carried across appends.  ``lag1``/``lag2`` are
    floats for a scalar run or ``(B,)`` vectors for a batch run.
    """
    def rhs(t, x, history):
        a = history(t - lag1)
        dx = -0.5 * a
        if lag2 is not None:
            b = history(t - lag2)
            dx = dx + 0.3 * b / (1.0 + b * b)
        if t_fixed is not None:
            dx = dx - 0.1 * history(t_fixed)
        return dx + 0.05 * (history(t - lag1) - x)

    return rhs


#: lag as a multiple of dt: inside the step (every lookup end-clamped at
#: k1..k4 — the carry-over across append must not fire), around it, not a
#: multiple, an exact multiple, and far beyond any run (pure pre-history)
LAG_FACTORS = st.one_of(
    st.floats(0.01, 0.99),
    st.floats(1.0, 12.0),
    st.integers(1, 12).map(float),
    st.just(1e4),
)


@st.composite
def problems(draw):
    dim = draw(st.integers(1, 4))
    dt = draw(st.floats(0.01, 0.3))
    n_steps = draw(st.integers(3, 60))
    t0 = draw(st.sampled_from([0.0, 0.5, -1.3]))
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    lag1 = draw(LAG_FACTORS) * dt
    lag2 = draw(st.none() | LAG_FACTORS.map(lambda f: f * dt))
    t_fixed = draw(st.none() | st.floats(0.0, 1.0).map(
        lambda u: t0 + u * n_steps * dt))
    method = draw(st.sampled_from(["rk4", "euler"]))
    return x0, (t0, t0 + n_steps * dt), dt, method, lag1, lag2, t_fixed


@settings(deadline=None)
@given(problems())
# lag inside the step: end-clamped lookups, re-queried after each append
@example(([1.0], (0.0, 2.0), 0.1, "rk4", 0.03, None, None))
@example(([1.0, -1.0], (0.0, 2.0), 0.1, "euler", 0.099, None, 0.75))
# steady-state carry-over (k4's lookup is the next k1's), lag not a multiple
@example(([1.0, 0.5, 2.0], (0.5, 3.5), 0.1, "rk4", 0.437, None, None))
# exact multiple of dt (queries land on grid points), thrashing second lag
@example(([1.0], (0.0, 3.0), 0.125, "rk4", 0.5, 0.25, None))
# pure pre-history
@example(([1.0, 2.0], (-1.3, 0.7), 0.05, "rk4", 1e3, None, None))
def test_scalar_equals_searchsorted_oracle(problem):
    x0, t_span, dt, method, lag1, lag2, t_fixed = problem
    rhs = make_rhs(lag1, lag2, t_fixed)
    sol = integrate_dde(rhs, x0, t_span, dt, method=method)
    ts, xs = oracle_integrate(rhs, x0, t_span, dt, method)
    assert np.array_equal(sol.t, ts)
    assert np.array_equal(sol.y, xs)


@settings(deadline=None)
@given(problems(), st.data())
def test_batch_equals_per_member_scalar_runs(problem, data):
    x0, t_span, dt, method, lag1, lag2, t_fixed = problem
    batch = data.draw(st.integers(1, 5))
    # member 0 keeps the drawn lags; the others get their own multiples
    scale = 1.0 + np.arange(batch) * data.draw(st.floats(0.0, 3.0))
    lags1 = lag1 * scale
    lags2 = None if lag2 is None else lag2 / scale
    x0s = np.asarray(x0)[None, :] * (1.0 + 0.25 * np.arange(batch))[:, None]
    sol = integrate_dde_batch(make_rhs(lags1, lags2, t_fixed), x0s, t_span,
                              dt, method=method)
    for b in range(batch):
        member = integrate_dde(
            make_rhs(float(lags1[b]),
                     None if lags2 is None else float(lags2[b]), t_fixed),
            x0s[b], t_span, dt, method=method)
        assert np.array_equal(sol.t, member.t)
        assert np.array_equal(sol.y[:, b, :], member.y)


# ----------------------------------------------------------------------
# read-only results
# ----------------------------------------------------------------------
@pytest.mark.parametrize("query", [
    pytest.param(lambda t: t - 10.0, id="pre-history"),
    pytest.param(lambda t: t - 0.25, id="interpolated"),
    pytest.param(lambda t: t, id="end-clamped"),
])
def test_scalar_lookup_is_read_only(query):
    def rhs(t, x, history):
        xd = history(query(t))
        if t > 0.5:  # all three kinds of lookup exist by now
            xd[0] = 0.0
        return -xd

    with pytest.raises(ValueError, match="read-only"):
        integrate_dde(rhs, [1.0, 2.0], (0.0, 1.0), dt=0.1)


@pytest.mark.parametrize("lags", [
    pytest.param([10.0, 20.0, 30.0], id="pre-history"),
    pytest.param([0.25, 0.31, 0.4], id="interpolated"),
    pytest.param([10.0, 0.25, -0.01], id="mixed-rows"),
])
def test_batch_lookup_is_read_only(lags):
    lags = np.array(lags)

    def rhs(t, x, history):
        xd = history(t - lags)
        if t > 0.5:
            xd *= 2
        return -xd

    with pytest.raises(ValueError, match="read-only"):
        integrate_dde_batch(rhs, np.ones((3, 2)), (0.0, 1.0), dt=0.1)


# ----------------------------------------------------------------------
# lookup count: the redundant interpolations must not come back
# ----------------------------------------------------------------------
def count_interpolations(monkeypatch, cls, run):
    """Interpolations per integration step (keyed by stored rows so far)."""
    per_step = Counter()
    inner = cls._interpolate

    def spy(self, tq, n):
        per_step[n] += 1
        return inner(self, tq, n)

    monkeypatch.setattr(cls, "_interpolate", spy)
    run()
    return per_step


@pytest.mark.parametrize("method, per_step_max", [("rk4", 2), ("euler", 1)])
def test_scalar_interpolations_per_step(monkeypatch, method, per_step_max):
    model = make_fluid_model("pert_red", rtt=0.1)
    n_steps, dt = 1000, 1e-3
    counts = count_interpolations(
        monkeypatch, _FloatHistory,
        lambda: model.simulate(n_steps * dt, dt=dt, method=method))
    assert max(counts.values()) <= per_step_max
    # past the first R/dt steps every step does look up, exactly that often
    settled = range(int(model.rtt / dt) + 2, n_steps + 1)
    assert all(counts[n] == per_step_max for n in settled)


@pytest.mark.parametrize("method, per_step_max", [("rk4", 2), ("euler", 1)])
def test_batch_interpolations_per_step(monkeypatch, method, per_step_max):
    models = [make_fluid_model("pert_red", rtt=0.08 + 0.006 * i)
              for i in range(16)]
    n_steps, dt = 1000, 1e-3
    counts = count_interpolations(
        monkeypatch, _BatchHistory,
        lambda: simulate_batch(models, n_steps * dt, dt=dt, method=method))
    assert max(counts.values()) <= per_step_max
    settled = range(int(max(m.rtt for m in models) / dt) + 2, n_steps + 1)
    assert all(counts[n] == per_step_max for n in settled)


# ----------------------------------------------------------------------
# the array adapter (integrate_dde) at its seams
# ----------------------------------------------------------------------
def test_adapter_lookups_are_read_only_float64_and_repeat_on_a_memo_hit():
    seen = []

    def rhs(t, x, history):
        a, b = history(t - 0.25), history(t - 0.25)  # second one: memo hit
        seen.append((x, a, b))
        return -a

    integrate_dde(rhs, [1.0, 2.0], (0.0, 1.0), dt=0.1)
    for x, a, b in seen:
        assert type(x) is np.ndarray and x.dtype == np.float64
        for xd in (a, b):
            assert type(xd) is np.ndarray and xd.dtype == np.float64
            assert xd.shape == (2,) and not xd.flags.writeable
        assert np.array_equal(a, b)


def test_adapter_takes_x0_as_list_tuple_or_array():
    def rhs(t, x, history):
        return -0.5 * history(t - 0.3) + 0.1 * x

    runs = [integrate_dde(rhs, x0, (0.0, 2.0), dt=0.05)
            for x0 in ([1.0, -2.0], (1.0, -2.0), np.array([1.0, -2.0]))]
    for sol in runs[1:]:
        assert np.array_equal(sol.y, runs[0].y)


def test_adapter_rejects_a_batch_shaped_problem():
    with pytest.raises(ValueError):
        integrate_dde(lambda t, x, h: -x, np.ones((3, 2)), (0.0, 1.0), dt=0.1)
    with pytest.raises(ValueError):  # (B, dim) derivatives for a (dim,) state
        integrate_dde(lambda t, x, h: np.ones((3, 2)), [1.0, 2.0],
                      (0.0, 1.0), dt=0.1)


# ----------------------------------------------------------------------
# the float kernel (integrate_dde_floats) at its seams
# ----------------------------------------------------------------------
def test_float_end_clamped_lookup_is_never_memoised():
    """Lag < dt: k4's query is the next k1's, with an append in between."""
    calls = []

    def rhs(t, x, history):
        calls.append((t - 0.03, history(t - 0.03)[0]))
        return (1.0,)

    sol = integrate_dde_floats(rhs, [0.0], (0.0, 1.0), dt=0.1)
    rows = sol.y[:, 0].tolist()
    for step in range(1, 10):
        (q4, at_k4), (q1, at_k1) = calls[4 * step - 1], calls[4 * step]
        assert q4 == q1
        # k4 probed past the stored history and held the last row; one
        # append later the same query is interior and must interpolate
        assert at_k4 == rows[step - 1]
        assert rows[step - 1] < at_k1 < rows[step]


def test_float_pre_history_lookup_is_x0_as_a_tuple():
    seen = []

    def rhs(t, x, history):
        seen.append(history(t - 5.0))
        return [-v for v in x]

    integrate_dde_floats(rhs, (3.0, -1.0), (0.0, 0.5), dt=0.1)
    assert seen and all(xd == (3.0, -1.0) and type(xd) is tuple
                        and all(type(v) is float for v in xd) for xd in seen)


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_float_rhs_may_return_tuple_or_list(method):
    def as_tuple(t, x, history):
        return -history(t - 0.25)[1], x[0]

    def as_list(t, x, history):
        return list(as_tuple(t, x, history))

    a, b = (integrate_dde_floats(rhs, [1.0, 0.5], (0.0, 2.0), dt=0.05,
                                 method=method)
            for rhs in (as_tuple, as_list))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t)
    with pytest.raises(ValueError, match="derivatives"):
        integrate_dde_floats(lambda t, x, h: (1.0, 2.0, 3.0), [1.0, 0.5],
                             (0.0, 1.0), dt=0.1, method=method)
