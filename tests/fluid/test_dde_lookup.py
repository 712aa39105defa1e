"""The delayed state ``repro.fluid.dde`` hands a right-hand side.

The kernel takes the model's lag and computes ``xd = x(t - lag)``
itself.  Guards:

* an independent oracle — a reference integrator that looks every
  stage's delayed state up with ``np.searchsorted`` plus the same
  interpolation expression, with no carry-over between stages — that
  ``integrate_dde`` must equal bit for bit over random dimensions,
  steps, methods, start times and lags (zero, shorter than the step,
  not a multiple of it, several seconds, longer than the run);
* a batch equals its members' scalar runs, shapes and lags mixed freely;
* the plan joins seamlessly across chunks, however short;
* ``xd`` cannot be modified: a tuple, or a read-only array;
* an exact count of the queries ``_resolve`` plans: RK4 two per step,
  Euler one, and k1 planned again only after an end-clamped k4;
* bounded memory: the plan is chunked, the ring O(R/dt), and a batch
  writes into its one buffer;
* generated code keeps no source lines, and a traceback still shows
  them;
* the grid arguments are checked, non-finite ones named;
* the two scalar contracts at their seams: what the array adapter hands
  an rhs and accepts from it, what the float kernel does.
"""

import gc
import math
import tracemalloc
import traceback
from collections import Counter

import numpy as np
import pytest

from repro.fluid import FLUID_MODELS, dde, make_fluid_model, simulate_batch
from repro.fluid.dde import integrate_dde, integrate_dde_floats

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# ----------------------------------------------------------------------
# independent oracle
# ----------------------------------------------------------------------
def oracle_integrate(rhs, x0, t_span, dt, method, lag):
    """``integrate_dde``'s grid and stepping over searchsorted lookups."""
    t0, t1 = t_span
    n_steps = int(round((t1 - t0) / dt))
    ts = np.empty(n_steps + 1)
    xs = np.empty((n_steps + 1, len(x0)))
    ts[0], xs[0], n = t0, x0, 1

    def delayed(ti):
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
            x = x + dt * rhs(t, x, delayed(t - lag))
        else:
            mid = delayed((t + dt / 2) - lag)
            k1 = rhs(t, x, delayed(t - lag))
            k2 = rhs(t + dt / 2, x + dt / 2 * k1, mid)
            k3 = rhs(t + dt / 2, x + dt / 2 * k2, mid)
            k4 = rhs(t + dt, x + dt * k3, delayed((t + dt) - lag))
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        ts[n], xs[n] = t, x
        n += 1
    return ts, xs


def rhs(t, x, xd):
    """Bounded delayed dynamics out of exactly-rounded operations only."""
    return -0.5 * xd + 0.3 * xd / (1.0 + xd * xd) + 0.05 * (xd - x)


#: lag as a multiple of dt: zero, inside the step (k4's row end-clamped,
#: so k1 must not reuse it), around it, not a multiple, an exact multiple
#: (queries land on grid points), and far beyond any run (pre-history)
LAG_FACTORS = st.one_of(
    st.just(0.0),
    st.floats(0.01, 0.99),
    st.floats(1.0, 12.0),
    st.integers(1, 12).map(float),
    st.just(1e4),
)


@st.composite
def problems(draw):
    dim = draw(st.integers(1, 4))
    dt = draw(st.floats(0.01, 0.3))
    n_steps = draw(st.integers(3, 120))
    t0 = draw(st.sampled_from([0.0, 0.5, -1.3]))
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    lag = draw(LAG_FACTORS) * dt
    method = draw(st.sampled_from(["rk4", "euler"]))
    return x0, (t0, t0 + n_steps * dt), dt, method, lag


@settings(deadline=None)
@given(problems())
# lag inside the step: k4's row end-clamped every step
@example(([1.0], (0.0, 2.0), 0.1, "rk4", 0.03))
@example(([1.0, -1.0], (0.0, 2.0), 0.1, "euler", 0.099))
# steady-state carry-over (k4's row is the next k1's), lag not a multiple
@example(([1.0, 0.5, 2.0], (0.5, 3.5), 0.1, "rk4", 0.437))
# exact multiple of dt, and a lag of more than a second from t0 < 0
@example(([1.0], (0.0, 3.0), 0.125, "rk4", 0.5))
@example(([1.0, 2.0], (-1.3, 8.7), 0.05, "rk4", 1.37))
# pure pre-history
@example(([1.0, 2.0], (-1.3, 0.7), 0.05, "rk4", 1e3))
def test_scalar_equals_searchsorted_oracle(problem):
    x0, t_span, dt, method, lag = problem
    sol = integrate_dde(rhs, x0, t_span, dt, method=method, lag=lag)
    ts, xs = oracle_integrate(rhs, x0, t_span, dt, method, lag)
    assert np.array_equal(sol.t, ts)
    assert np.array_equal(sol.y, xs)


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(FLUID_MODELS)),
                          st.floats(0.005, 2.0)), min_size=1, max_size=5),
       st.floats(0.01, 0.3), st.integers(3, 120),
       st.sampled_from(["rk4", "euler"]))
def test_batch_equals_per_member_scalar_runs(members, dt, n_steps, method):
    """Every registered shape, with RTTs shorter and longer than the
    step mixed freely: member *b* is its own model's scalar run."""
    models = [make_fluid_model(name, rtt=rtt) for name, rtt in members]
    duration = n_steps * dt
    sol = simulate_batch(models, duration, dt=dt, method=method)
    for b, model in enumerate(models):
        member = model.simulate(duration, dt=dt, method=method)
        assert np.array_equal(sol.t, member.t)
        assert np.array_equal(sol.y[:, b], member.y, equal_nan=True)


@pytest.mark.parametrize("lag", [0.0, 0.03, 0.1, 0.25, 0.7, 100.0])
def test_scalar_plan_chunks_join_seamlessly(monkeypatch, lag):
    """One step per chunk gives the same bytes as the default chunk."""
    def float_rhs(t, x, xd):
        return [-0.5 * d + 0.05 * (d - v) for v, d in zip(x, xd)]

    for method in ("rk4", "euler"):
        whole = integrate_dde_floats(float_rhs, [1.0, -0.5], (0.0, 30.0),
                                     0.1, method, lag)
        monkeypatch.setattr(dde, "_PLAN_STEPS", 1)
        steps = integrate_dde_floats(float_rhs, [1.0, -0.5], (0.0, 30.0),
                                     0.1, method, lag)
        monkeypatch.undo()
        assert whole.y.tobytes() == steps.y.tobytes()


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_a_three_step_plan_equals_the_default(monkeypatch, method):
    """Every registered shape's own equations, and a lag inside the step
    (k1 planned again at every step): chunks of three steps, which the
    runs' 1000 steps do not divide, give the default chunk's bytes."""
    def runs():
        models = [make_fluid_model(name) for name in sorted(FLUID_MODELS)]
        models.append(make_fluid_model("pert_red", rtt=4e-4))
        return [m.simulate(1.0, dt=1e-3, method=method).y.tobytes()
                for m in models]

    whole = runs()
    monkeypatch.setattr(dde, "_PLAN_STEPS", 3)
    assert runs() == whole


# ----------------------------------------------------------------------
# the delayed state cannot be modified
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lag", [
    pytest.param(10.0, id="pre-history"),
    pytest.param(0.25, id="interpolated"),
    pytest.param(0.0, id="end-clamped"),
])
def test_scalar_lookup_is_read_only(lag):
    def rhs(t, x, xd):
        if t > 0.5:  # past the pre-history for the shorter lags
            xd[0] = 0.0
        return -xd

    with pytest.raises(ValueError, match="read-only"):
        integrate_dde(rhs, [1.0, 2.0], (0.0, 1.0), dt=0.1, lag=lag)


# ----------------------------------------------------------------------
# planned queries: the redundant lookups must not come back
# ----------------------------------------------------------------------
def planned_per_step(monkeypatch, run) -> Counter:
    """Queries ``_resolve`` plans for each step while *run*."""
    per_step = Counter()
    resolve = dde._resolve

    def counting(q, steps, ts, dt):
        per_step.update(steps.tolist())
        return resolve(q, steps, ts, dt)

    monkeypatch.setattr(dde, "_resolve", counting)
    run()
    return per_step


@pytest.mark.parametrize("method, per_step_max", [("rk4", 2), ("euler", 1)])
def test_scalar_interpolations_per_step(monkeypatch, method, per_step_max):
    """The kernel's queries, counted where they are planned."""
    model = make_fluid_model("pert_red", rtt=0.1)
    n_steps, dt = 1000, 1e-3
    per_step = planned_per_step(monkeypatch, lambda: model.simulate(
        n_steps * dt, dt=dt, method=method))
    assert sorted(per_step) == list(range(n_steps))
    assert max(per_step.values()) <= per_step_max
    # past the first R/dt steps every query interpolates, exactly that many
    settled = range(int(model.rtt / dt) + 2, n_steps)
    assert all(per_step[s] == per_step_max for s in settled)


@pytest.mark.parametrize("method, per_step_max", [("rk4", 2), ("euler", 1)])
def test_batch_interpolations_per_step(monkeypatch, method, per_step_max):
    """A batch plans each member's queries once: B times one run's."""
    models = [make_fluid_model("pert_red", rtt=0.08 + 0.006 * i)
              for i in range(16)]
    n_steps, dt = 1000, 1e-3
    per_step = planned_per_step(monkeypatch, lambda: simulate_batch(
        models, n_steps * dt, dt=dt, method=method))
    assert per_step == Counter(dict.fromkeys(range(n_steps),
                                             per_step_max * len(models)))


@pytest.mark.parametrize("lags", [[0.03], [0.1], [0.25], [0.03, 0.25],
                                  [0.0, 0.1, 0.7]])
def test_k1_is_planned_again_only_after_an_end_clamped_k4(monkeypatch,
                                                           lags):
    """RK4's k1 takes the last k4 row unless that row was end-clamped.

    Step ``s - 1``'s k4 asks for ``ts[s] - lag`` with row ``s - 1`` the
    newest: end-clamped when that time is not before ``ts[s - 1]``.  Then,
    and only then, step ``s`` plans k1 once more.  One lag at a time.
    """
    dt, n_steps = 0.1, 40
    ts = dde._grid(0.0, dt, n_steps)
    for lag in lags:
        clamped = {s for s in range(1, n_steps) if ts[s] - lag >= ts[s - 1]}
        expected = {s: 2 + (s in clamped) for s in range(n_steps)}
        planned = planned_per_step(monkeypatch, lambda: integrate_dde(
            rhs, [0.5, 1.5], (0.0, n_steps * dt), dt, lag=lag))
        monkeypatch.undo()
        assert planned == expected


# ----------------------------------------------------------------------
# bounded memory: a chunked plan, an O(R/dt) ring
# ----------------------------------------------------------------------
def peak_bytes(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_plan_memory_is_bounded():
    """Two 50 s members: the plan stays O(chunk), not O(steps), and each
    member is written into the buffer, not copied there.

    Either fault alone adds more than the 1 MiB slack: a one-chunk plan
    holds ≈ 3.3 MB of lookups for 50,000 RK4 steps, and a member's own
    solution array is 1.2 MB.  Two members, because ``tracemalloc``
    slows these Python-float runs ≈ 40×.
    """
    models = [make_fluid_model("pert_red", rtt=0.08 + 0.006 * i)
              for i in range(2)]
    sol, peak = peak_bytes(lambda: simulate_batch(models, 50.0, dt=1e-3))
    assert peak <= sol.y.nbytes + 2**20


def test_scalar_ring_memory_is_bounded():
    """A 15 s run keeps O(R/dt) rows as tuples beside its solution arrays.

    15,000 steps: a ring sized to the run, or the whole run planned as
    one chunk, adds over a megabyte.  Run alone, the kernel compiles
    inside the measured run, before the arrays exist; below ≈ 15 s that
    transient, not the ring, would set the peak.
    """
    model = make_fluid_model("pert_red", rtt=0.171)
    sol, peak = peak_bytes(lambda: model.simulate(15.0))
    assert peak <= sol.t.nbytes + sol.y.nbytes + 64 * 2**10


def _oscillator(name, stage="du = v\ndv = -w * w * u\n"):
    return dde.Equations(name=name, params=("w",), state=("u", "v"),
                         derivative=("du", "dv"), delayed="", stage=stage)


def test_a_new_kernel_shape_retains_no_source_lines():
    """Compiling a kernel and an rhs keeps their code, not their source:
    ``linecache`` holds how to build the lines, which a traceback asks
    for.  Both retain ≈ 6.1-7.6 KB on CPython 3.11; keeping their lines
    would add 8.3 KB.
    """
    block = _oscillator("retained-bytes oscillator")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dde._float_kernel(2, block)
        dde.equations_rhs(block)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 10 * 2**10


def test_a_traceback_shows_the_generated_source_line():
    block = _oscillator("traceback oscillator",
                        stage="du = v / w\ndv = -w * w * u\n")
    for run in (lambda: dde.integrate_equations(block, (0.0,), [1.0, 0.5],
                                                (0.0, 1.0), dt=0.1),
                lambda: dde.equations_rhs(block)(0.0)(0.0, (1.0, 0.5), None)):
        with pytest.raises(ZeroDivisionError) as info:
            run()
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        assert frame.filename.startswith("repro.fluid.dde ")
        assert frame.line.endswith(" = v / w"), frame.line


# ----------------------------------------------------------------------
# the array adapter (integrate_dde) at its seams
# ----------------------------------------------------------------------
def test_adapter_hands_rhs_read_only_float64_arrays():
    seen = []

    def rhs(t, x, xd):
        seen.append((x, xd))
        return -xd

    integrate_dde(rhs, [1.0, 2.0], (0.0, 1.0), dt=0.1, lag=0.25)
    for x, xd in seen:
        assert type(x) is np.ndarray and x.dtype == np.float64
        assert type(xd) is np.ndarray and xd.dtype == np.float64
        assert xd.shape == (2,) and not xd.flags.writeable


def test_an_ode_gets_no_delayed_state():
    seen = set()

    def rhs(t, x, xd):
        seen.add(xd)
        return [-v for v in x]

    integrate_dde_floats(rhs, [1.0], (0.0, 1.0), dt=0.1)
    integrate_dde(rhs, [1.0], (0.0, 1.0), dt=0.1, method="euler")
    assert seen == {None}


@pytest.mark.parametrize("lag", [-0.1, float("nan"), np.array([0.1, -0.1])])
def test_a_negative_lag_is_rejected(lag):
    with pytest.raises(ValueError, match="lag"):
        integrate_dde_floats(lambda t, x, xd: xd, [1.0], (0.0, 1.0),
                             dt=0.1, lag=lag)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("t_span, dt, named", [
    pytest.param((0.0, 1.0), INF, "dt", id="dt-inf"),
    pytest.param((0.0, 1.0), NAN, "dt", id="dt-nan"),
    pytest.param((0.0, NAN), 0.1, "t_span", id="t1-nan"),
    pytest.param((NAN, 1.0), 0.1, "t_span", id="t0-nan"),
    pytest.param((0.0, INF), 0.1, "t_span", id="t1-inf"),
    pytest.param((-INF, 0.0), 0.1, "t_span", id="t0-inf"),
    pytest.param((-1e308, 1e308), 1.0, "t_span", id="span-overflows"),
])
def test_a_non_finite_grid_is_rejected_by_name(t_span, dt, named):
    """Not a one-point solution, an int conversion or an OverflowError."""
    for run in (
        lambda: integrate_dde_floats(lambda t, x, xd: xd, [1.0], t_span,
                                     dt, lag=0.1),
        lambda: integrate_dde(lambda t, x, xd: -xd, [1.0], t_span, dt,
                              lag=0.1),
    ):
        with pytest.raises(ValueError, match=named):
            run()


def test_adapter_takes_x0_as_list_tuple_or_array():
    def rhs(t, x, xd):
        return -0.5 * xd + 0.1 * x

    runs = [integrate_dde(rhs, x0, (0.0, 2.0), dt=0.05, lag=0.3)
            for x0 in ([1.0, -2.0], (1.0, -2.0), np.array([1.0, -2.0]))]
    for sol in runs[1:]:
        assert np.array_equal(sol.y, runs[0].y)


def test_adapter_rejects_a_batch_shaped_problem():
    with pytest.raises(ValueError):
        integrate_dde(lambda t, x, xd: -x, np.ones((3, 2)), (0.0, 1.0),
                      dt=0.1)
    with pytest.raises(ValueError):  # (B, dim) derivatives for a (dim,) state
        integrate_dde(lambda t, x, xd: np.ones((3, 2)), [1.0, 2.0],
                      (0.0, 1.0), dt=0.1)


# ----------------------------------------------------------------------
# the float kernel (integrate_dde_floats) at its seams
# ----------------------------------------------------------------------
def test_float_end_clamped_row_is_not_carried_over():
    """Lag < dt: k4's query is the next k1's, with a row stored between."""
    calls = []

    def rhs(t, x, xd):
        calls.append((t, xd[0]))
        return (1.0,)

    sol = integrate_dde_floats(rhs, [0.0], (0.0, 1.0), dt=0.1, lag=0.03)
    rows = sol.y[:, 0].tolist()
    for step in range(1, 10):
        (t4, at_k4), (t1, at_k1) = calls[4 * step - 1], calls[4 * step]
        assert t4 == t1
        # k4 looked past the stored history and held the last row; one
        # row later the same time is interior and must interpolate
        assert at_k4 == rows[step - 1]
        assert rows[step - 1] < at_k1 < rows[step]


def test_float_pre_history_lookup_is_x0_as_a_tuple():
    seen = []

    def rhs(t, x, xd):
        seen.append(xd)
        return [-v for v in x]

    integrate_dde_floats(rhs, (3.0, -1.0), (0.0, 0.5), dt=0.1, lag=5.0)
    assert seen and all(xd == (3.0, -1.0) and type(xd) is tuple
                        and all(type(v) is float for v in xd) for xd in seen)


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_float_rhs_may_return_tuple_or_list(method):
    def as_tuple(t, x, xd):
        return -xd[1], x[0]

    def as_list(t, x, xd):
        return list(as_tuple(t, x, xd))

    a, b = (integrate_dde_floats(rhs, [1.0, 0.5], (0.0, 2.0), dt=0.05,
                                 method=method, lag=0.25)
            for rhs in (as_tuple, as_list))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t)
    with pytest.raises(ValueError, match="derivatives"):
        integrate_dde_floats(lambda t, x, xd: (1.0, 2.0, 3.0), [1.0, 0.5],
                             (0.0, 1.0), dt=0.1, method=method)


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("stage", [2, 3, 4])
def test_float_every_stage_derivative_count_is_checked(stage, count):
    """A wrong count at k2..k4 is the k1 error, not a dropped value."""
    calls = []

    def rhs(t, x, xd):
        calls.append(t)
        if len(calls) == 4 + stage:  # the second step's stage
            return (0.5,) * count
        return -x[1], x[0]

    with pytest.raises(ValueError, match=f"rhs returned {count} derivatives "
                                         "for 2 state components"):
        integrate_dde_floats(rhs, [1.0, 0.5], (0.0, 1.0), dt=0.1, lag=0.25)


def test_float_rhs_value_error_is_not_a_count_error():
    def rhs(t, x, xd):
        if t > 0.5:
            raise ValueError("from the model")
        return -x[1], x[0]

    with pytest.raises(ValueError, match="from the model"):
        integrate_dde_floats(rhs, [1.0, 0.5], (0.0, 1.0), dt=0.1, lag=0.25)
