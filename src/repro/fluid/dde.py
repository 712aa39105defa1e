"""Fixed-step integrator for delay differential equations (DDEs).

The paper's Section 5 analyses PERT with a fluid model of the form

    x'(t) = f(t, x(t), x(t - R))

with one constant delay R, the *lag*.  We integrate with classical RK4
over a fixed grid, evaluating the delayed state by linear interpolation
in the stored solution — the method-of-steps approach Matlab's ``dde23``
uses, simplified to a fixed step.  Before ``t0`` the history is the
constant initial state, matching the paper's simulations which start
from a constant initial point.

Three entry points share the grid and the arithmetic:

* :func:`integrate_dde_floats` — one system, the **float contract**: the
  state and the delayed state are tuples of Python floats and the rhs
  returns a tuple or list.  This is the scalar kernel — the only scalar
  stepping loop — and what the registered fluid models run on; no numpy
  ufunc is involved.  The loop is one source template
  (:data:`_FLOAT_KERNEL`), compiled once per state dimension on first
  use, with the state, the four RK4 stages and the two rows of an
  interpolation unrolled into named locals (``x0, x1, x2``, ``a0 ..``,
  ``p0 ..``) rather than lists walked per component;
  ``tests/fluid/reference.py`` keeps that list loop as the reference the
  generated one equals bit for bit.
* :func:`integrate_dde` — one system, the **array contract**: ``(dim,)``
  float64 arrays in and out, so an rhs can be written ``A @ x``.  An
  adapter over the float kernel for everything that is not a registered
  model; it carries no stepping arithmetic of its own.
* :func:`integrate_dde_batch` — B independent systems advanced together
  as ``(B, dim)`` array operations, each with its own lag.

Every elementwise operation is the same IEEE-754 double operation in the
same order whether it runs on Python floats or inside a float64 ufunc,
so a batch run is bit-identical to B scalar runs and the two scalar
contracts agree bit for bit — the properties
``tests/fluid/test_dde_batch.py`` and
``tests/fluid/test_trajectory_pins.py`` pin exactly.

The delayed state (``xd`` in ``rhs(t, x, xd)``)
-----------------------------------------------
* **The kernel computes it**: ``xd = x(t - lag)`` for the *lag* declared
  to the kernel (``None`` for an ODE, whose rhs then gets ``xd = None``).
  Between grid points it is ``x_lo * (1 - f) + x_hi * f`` on exactly the
  interval ``searchsorted`` would pick: a uniform-grid guess, corrected
  by a one-ulp fix-up (the grid is built by repeated ``t += dt``).  An
  RK4 step interpolates at most twice, at ``t + dt/2 - lag`` and
  ``t + dt - lag``; the latter row is the next step's ``t - lag`` and
  carries over unless it was end-clamped.  Euler interpolates once.
* **Before ``t0``** it is ``x0``; **at or past the last stored row**
  (a lag shorter than the step: RK4's later stages look past the stored
  history) it holds that row.
* **It cannot be modified**: a tuple in the float contract, an array
  with ``writeable=False`` in the other two.  An rhs that needs to
  modify it copies it first.

``tests/fluid/test_dde_lookup.py`` holds the ``searchsorted`` oracle
these rules are checked against, and the interpolations-per-step guard.
"""

from __future__ import annotations

import functools
import linecache
import re
from itertools import accumulate, repeat
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DdeSolution",
    "DdeBatchSolution",
    "integrate_dde",
    "integrate_dde_floats",
    "integrate_dde_batch",
]

#: (step, member) queries the batch kernel resolves per plan chunk
_PLAN_QUERIES = 1024


class DdeSolution:
    """Dense output of a DDE integration.

    Attributes
    ----------
    t:
        1-D array of time points (uniform grid).  ``t[-1]`` is
        ``round(span / dt)`` steps past ``t[0]`` — ``simulate(duration)``
        ends at ``round(duration / dt) * dt``, not at ``duration``, when
        the span is not a multiple of the step.
    y:
        2-D array, shape ``(len(t), dim)``.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        self.t = t
        self.y = y

    def __call__(self, ti: float) -> np.ndarray:
        """Linear interpolation of the solution at time *ti* (clamped).

        Always a fresh array, at the clamped ends too: writing to the
        result never edits the stored trajectory.
        """
        t = self.t
        if ti <= t[0]:
            return self.y[0].copy()
        if ti >= t[-1]:
            return self.y[-1].copy()
        idx = int(np.searchsorted(t, ti) - 1)
        frac = (ti - t[idx]) / (t[idx + 1] - t[idx])
        return self.y[idx] * (1 - frac) + self.y[idx + 1] * frac

    def component(self, i: int) -> np.ndarray:
        return self.y[:, i]


def _check_problem(t_span, dt: float, method: str,
                   lag) -> Tuple[float, int, bool]:
    """Validate the grid arguments and the lag; ``(t0, n_steps, euler)``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if method not in ("rk4", "euler"):
        raise ValueError(f"unknown method {method!r}")
    t0, t1 = t_span
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    if lag is not None and not np.all(np.asarray(lag) >= 0):
        raise ValueError("lag must be non-negative")
    return t0, int(round((t1 - t0) / dt)), method == "euler"


def _grid(t0: float, dt: float, n_steps: int) -> np.ndarray:
    """``t0, t0 + dt, ...`` by repeated addition, as the steppers advance."""
    return np.fromiter(accumulate(repeat(dt, n_steps), initial=t0),
                       float, n_steps + 1)


#: The float kernel's source: the ring interpolator and the stepping
#: loop, compiled once per state dimension by :func:`_float_kernel`.
#: ``{expr}`` stands for the tuple display of *expr* taken once per state
#: component: the single letters ``x a b c d p q`` gain the component's
#: index and ``i`` becomes it, so with two components
#: ``{x + half * a}`` reads ``(x0 + half * a0, x1 + half * a1)``.  The
#: state ``x``, the stages ``a b c d`` (k1 .. k4) and the two rows ``p q``
#: of an interpolation are then named locals, not lists.
_FLOAT_KERNEL = '''\
def ring_interpolator(tv, ring, t0, dt):
    size = len(ring)

    def interpolate(ti, n):
        # O(1) uniform-grid guess.  The grid is built by accumulated
        # ``t += dt``, so ``(ti - t0) / dt`` can be off by one interval;
        # the fix-up loops restore the exact invariant ``searchsorted``
        # establishes: ts[idx] < ti <= ts[idx + 1].
        idx = int((ti - t0) / dt)
        if idx > n - 2:
            idx = n - 2
        while idx > 0 and tv[idx] >= ti:
            idx -= 1
        while tv[idx + 1] < ti:
            idx += 1
        t_lo = tv[idx]
        frac = (ti - t_lo) / (tv[idx + 1] - t_lo)
        rest = 1 - frac
        {p} = ring[idx % size]
        {q} = ring[(idx + 1) % size]
        return {p * rest + q * frac}

    return interpolate


def step(rhs, start, t, n_steps, dt, euler, lag, out, ring, interpolate):
    dim = len(start)
    {x} = start
    t0 = t
    delayed = lag is not None
    pre = last = start
    xd = pre if delayed else None  # the first k1 reads t0 - lag
    if delayed:
        size = len(ring)
    fresh = False  # k1 cannot reuse the previous k4's row
    half = dt / 2
    sixth = dt / 6.0
    k = start
    try:
        for n in range(1, n_steps + 1):
            # rows 0 .. n - 1 are stored, the newest (``last``) at ``t``
            if fresh:
                tq = t - lag
                xd = pre if tq <= t0 else last if tq >= t else interpolate(tq, n)
            k = rhs(t, {x}, xd)
            {a} = k
            if euler:
                {x} = {x + dt * a}
                fresh = delayed
            else:
                t_mid = t + half
                t_end = t + dt
                if delayed:
                    tq = t_mid - lag
                    xd = pre if tq <= t0 else last if tq >= t else interpolate(tq, n)
                k = rhs(t_mid, {x + half * a}, xd)
                {b} = k
                k = rhs(t_mid, {x + half * b}, xd)
                {c} = k
                if delayed:
                    # also the next step's t - lag; an end-clamped row is
                    # not that step's answer, one more row will be stored
                    # by then
                    tq = t_end - lag
                    xd = pre if tq <= t0 else last if tq >= t else interpolate(tq, n)
                    fresh = tq >= t
                k = rhs(t_end, {x + dt * c}, xd)
                {d} = k
                {x} = {x + sixth * (a + 2 * b + 2 * c + d)}
            t += dt
            row = n * dim
            {out[row + i]} = {x}
            if delayed:
                last = ring[n % size] = {x}
    except ValueError:
        # every unpacking above follows the call that bound ``k``: a
        # wrong-length ``k`` is what failed, anything else is the rhs's own
        if len(k) != dim:
            raise ValueError("rhs returned %d derivatives for %d state "
                             "components" % (len(k), dim)) from None
        raise
'''

#: a ``{expr}`` of the template, and a per-component name inside one
_TEMPLATE_FIELD = re.compile(r"\{([^{}]*)\}")
_COMPONENT_NAME = re.compile(r"\b([xabcdpqi])\b")


def _per_component(expr: str, dim: int) -> str:
    """*expr* once per component, as a tuple display (see the template)."""
    items = [_COMPONENT_NAME.sub(
        lambda m: str(i) if m[1] == "i" else f"{m[1]}{i}", expr)
        for i in range(dim)]
    return "(" + ", ".join(items) + ("," if dim == 1 else "") + ")"


@functools.lru_cache(maxsize=None)
def _float_kernel(dim: int) -> Tuple[Callable, Callable]:
    """The template compiled for *dim* components: its two functions.

    ``(ring_interpolator, step)``, generated on first use, the way
    ``dataclasses`` writes ``__init__``; the source is registered with
    ``linecache`` under a descriptive file name, so a traceback through
    the kernel shows its lines.
    """
    source = _TEMPLATE_FIELD.sub(lambda m: _per_component(m[1], dim),
                                 _FLOAT_KERNEL)
    filename = f"<repro.fluid.dde float kernel, dim={dim}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["ring_interpolator"], namespace["step"]


def _ring_interpolator(tv: memoryview, ring: list, t0: float, dt: float):
    """The float kernel's interior lookup over the rows kept in *ring*.

    *tv* is the grid (indexing a memoryview yields a Python float; the
    array would box an ``np.float64``) and row ``i`` sits at
    ``ring[i % len(ring)]``.  The returned ``interpolate(ti, n)`` is
    ``x(ti)`` for ``t0 < ti < ts[n - 1]`` with rows ``0 .. n - 1``
    stored, generated for rows of ``len(ring[0])`` components.
    """
    make, _ = _float_kernel(len(ring[0]))
    return make(tv, ring, t0, dt)


def integrate_dde_floats(
    rhs: Callable[[float, Sequence[float], Optional[Tuple[float, ...]]],
                  Sequence[float]],
    x0: Sequence[float],
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
    lag: Optional[float] = None,
) -> DdeSolution:
    """Integrate a float-contract ``x' = rhs(t, x, xd)`` over *t_span*.

    The scalar kernel: the one stepping loop every single-system
    integration runs (:func:`integrate_dde` adapts array right-hand
    sides onto it).  Nothing in it touches a numpy ufunc.

    Parameters
    ----------
    rhs:
        Callable receiving the current time, the current state as a
        tuple of ``dim`` Python floats, and ``xd = x(t - lag)`` as a
        tuple of floats (``None`` without a lag); must return the
        ``dim`` derivatives as a tuple or list of floats (any other
        count raises ``ValueError``, at whichever stage returns it).
    x0:
        Initial state; also the constant pre-history.
    method:
        ``"rk4"`` (default) or ``"euler"``.
    lag:
        The constant delay R >= 0, or ``None`` for an ODE.

    The grid is ``t0, t0 + dt, ...`` built by repeated addition over
    ``round((t1 - t0) / dt)`` steps, so the run ends at that many steps
    past ``t0`` — not at ``t1`` when the span is not a multiple of *dt*.
    Rows are written to the preallocated solution arrays through a flat
    memoryview; the lookups read them back from a ring of the last
    ``lag / dt + 4`` rows.
    """
    t, n_steps, euler = _check_problem(t_span, dt, method, lag)
    start = tuple([float(v) for v in x0])
    # generated before the solution arrays exist, so compiling a new
    # dimension's kernel never adds to a run's peak memory
    _, step = _float_kernel(len(start))
    ts = _grid(t, dt, n_steps)
    xs = np.empty((n_steps + 1, len(start)))
    xs[0] = start
    ring = interpolate = None
    if lag is not None:
        # an interval read ``lag`` back starts at most lag / dt + 2 rows
        # behind the newest, one more with the grid's rounding
        ring = [start] * (int(min(lag / dt, n_steps)) + 4)
        interpolate = _ring_interpolator(memoryview(ts), ring, t, dt)
    step(rhs, start, t, n_steps, dt, euler, lag, memoryview(xs.reshape(-1)),
         ring, interpolate)
    return DdeSolution(ts, xs)


def integrate_dde(
    rhs: Callable[[float, np.ndarray, Optional[np.ndarray]], np.ndarray],
    x0: Sequence[float],
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
    lag: Optional[float] = None,
) -> DdeSolution:
    """Integrate an array-contract ``x' = rhs(t, x, xd)`` over *t_span*.

    Parameters
    ----------
    rhs:
        Callable receiving the current time, the current state as a
        ``(dim,)`` float64 array, and ``xd = x(t - lag)`` as a read-only
        ``(dim,)`` float64 array (``None`` without a lag); must return
        the state derivative as an array (anything that broadcasts to
        ``(dim,)``).
    x0:
        Initial state (list, tuple or 1-D array); also the constant
        pre-history.
    method:
        ``"rk4"`` (default) or ``"euler"``.
    lag:
        The constant delay R >= 0, or ``None`` for an ODE.

    An adapter over :func:`integrate_dde_floats` — same grid, same
    stepping, same lookups; only the values crossing into and out of
    *rhs* are wrapped as arrays.

    Returns
    -------
    DdeSolution with the full trajectory on the uniform grid.
    """
    start = np.asarray(x0, dtype=float)
    if start.ndim != 1:
        raise ValueError("x0 must be one-dimensional (one system)")

    def float_rhs(t, x, xd):
        if xd is not None:
            xd = np.array(xd)
            xd.setflags(write=False)
        dx = np.asarray(rhs(t, np.array(x), xd), dtype=float)
        return np.broadcast_to(dx, start.shape).tolist()

    return integrate_dde_floats(float_rhs, start.tolist(), t_span, dt,
                                method, lag)


# ----------------------------------------------------------------------
# batched integration: B independent systems as (B, dim) array ops
# ----------------------------------------------------------------------
class DdeBatchSolution:
    """Dense output of a batched DDE integration.

    Attributes
    ----------
    t:
        1-D array of time points (uniform grid, shared by the batch).
    y:
        3-D array, shape ``(len(t), batch, dim)``.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        self.t = t
        self.y = y

    def __getitem__(self, b: int) -> DdeSolution:
        """Member *b*'s trajectory as an ordinary :class:`DdeSolution`."""
        return DdeSolution(self.t, self.y[:, b, :])

    def component(self, i: int) -> np.ndarray:
        """Component *i* of every member, shape ``(len(t), batch)``."""
        return self.y[:, :, i]


def _resolve(q: np.ndarray, steps: np.ndarray, ts: np.ndarray, dt: float,
             batch: int) -> list:
    """Where a chunk of delayed-time queries reads the stored solution.

    ``q[c, j]`` is made at step ``steps[c]`` (row ``steps[c]`` is the
    newest stored) for member ``j % batch``.  The same guess-and-fix-up
    index arithmetic as the float kernel's, elementwise, over the whole
    chunk at once.  Returns one ``(lo, hi, w_lo, w_hi, edge)`` per step
    for :func:`_gather`: flat row indices into ``xs.reshape(-1, dim)``,
    weights ``1 - f`` and ``f``, and the mask of boundary entries —
    pre-history or end-clamped, ``lo == hi`` the row to copy — or
    ``None`` when the step has none.
    """
    t0 = ts[0]
    newest = steps[:, None]
    pre = q <= t0
    edge = pre | (q >= ts[newest])
    inner = ~edge
    guess = (q - t0) / dt
    np.clip(guess, 0, len(ts) - 2, out=guess)
    idx = guess.astype(np.intp)
    # one-ulp fix-up to ts[idx] < q <= ts[idx + 1] (interior entries)
    while True:
        down = inner & (ts[idx] >= q)
        if not down.any():
            break
        idx[down] -= 1
    while True:
        up = inner & (ts[idx + 1] < q)
        if not up.any():
            break
        idx[up] += 1
    t_lo = ts[idx]
    frac = (q - t_lo) / (ts[idx + 1] - t_lo)
    row = np.where(pre, 0, newest)
    members = np.arange(q.shape[1]) % batch
    lo = np.where(edge, row, idx) * batch + members
    hi = np.where(edge, row, idx + 1) * batch + members
    w_hi = np.where(edge, 0.0, frac)[..., None]
    w_lo = 1 - w_hi
    edges = [e if any_ else None
             for e, any_ in zip(edge[..., None], edge.any(axis=1))]
    return list(zip(lo, hi, w_lo, w_hi, edges))


def _gather(flat: np.ndarray, lo, hi, w_lo, w_hi, edge) -> np.ndarray:
    """One step's delayed rows, ``x_lo * (1 - f) + x_hi * f``, read-only.

    Boundary entries are copied from their row exactly (``x * 1 + x * 0``
    is not ``x`` for an infinite ``x``).
    """
    x_lo = flat.take(lo, axis=0)
    out = x_lo * w_lo + flat.take(hi, axis=0) * w_hi
    if edge is not None:
        np.copyto(out, x_lo, where=edge)
    out.setflags(write=False)
    return out


def _batch_lookups(ts: np.ndarray, xs: np.ndarray, lags: np.ndarray,
                   dt: float, euler: bool):
    """Yield each step's delayed states ``(xd1, xd2, xd4)``.

    ``xd2`` serves k2 and k3; Euler uses ``xd1`` alone.  Step ``s``'s
    states are gathered when the caller asks for them, after it stored
    row ``s``.  Intervals and weights are resolved :data:`_PLAN_QUERIES`
    at a time, so the plan is O(chunk × B), never O(steps × B).
    """
    n_steps = len(ts) - 1
    half = dt / 2
    batch = len(lags)
    flat = xs.reshape(-1, xs.shape[2])
    xd4 = xs[0].copy()  # the first k1 reads t0 - lag: pre-history
    xd4.setflags(write=False)
    chunk = max(1, _PLAN_QUERIES // batch)
    for first in range(0, n_steps, chunk):
        steps = np.arange(first, min(first + chunk, n_steps))
        t = ts[steps][:, None]
        q1 = t - lags
        if euler:
            for plan in _resolve(q1, steps, ts, dt, batch):
                yield _gather(flat, *plan), None, None
            continue
        plans = _resolve(np.hstack([(t + half) - lags,
                                    ts[steps + 1][:, None] - lags]),
                         steps, ts, dt, batch)
        # k1 reuses the previous step's k4 row unless that was end-clamped
        fresh = (q1 > ts[0]) & (q1 >= ts[steps - 1][:, None])
        fresh[steps == 0] = False
        again = (_resolve(q1, steps, ts, dt, batch) if fresh.any()
                 else repeat(None))
        for plan, redo, mask in zip(plans, again, fresh):
            xd1 = xd4
            if redo is not None and mask.any():
                xd1 = np.where(mask[:, None], _gather(flat, *redo), xd4)
                xd1.setflags(write=False)
            xd24 = _gather(flat, *plan)
            xd4 = xd24[batch:]
            yield xd1, xd24[:batch], xd4


def integrate_dde_batch(
    rhs: Callable[[float, np.ndarray, Optional[np.ndarray]], np.ndarray],
    x0: np.ndarray,
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
    lag=None,
) -> DdeBatchSolution:
    """Advance B independent DDE systems together as array operations.

    Parameters
    ----------
    rhs:
        Callable ``rhs(t, X, XD) -> (B, dim)`` where ``X`` is the
        ``(B, dim)`` state block and ``XD`` the read-only ``(B, dim)``
        block of delayed states, row *b* at ``t - lag[b]`` (``None``
        without a lag).
    x0:
        ``(B, dim)`` array of initial states (also the constant
        pre-history of each member).
    lag:
        One delay for every member or a ``(B,)`` vector of them (each
        >= 0), or ``None`` for an ODE.

    All members share the time grid.  The stepping arithmetic mirrors
    :func:`integrate_dde` exactly, so the trajectory of member *b*
    equals a scalar integration of that member bit for bit.
    """
    t, n_steps, euler = _check_problem(t_span, dt, method, lag)
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 2:
        raise ValueError("x0 must have shape (batch, dim)")
    ts = _grid(t, dt, n_steps)
    xs = np.empty((n_steps + 1,) + x.shape)
    xs[0] = x
    if lag is None:
        lookups = repeat((None, None, None), n_steps)
    else:
        lags = np.broadcast_to(np.asarray(lag, dtype=float), x.shape[:1])
        lookups = _batch_lookups(ts, xs, lags, dt, euler)
    half = dt / 2
    sixth = dt / 6.0
    for n, (xd1, xd2, xd4) in enumerate(lookups, 1):
        if euler:
            x = x + dt * np.asarray(rhs(t, x, xd1))
        else:
            k1 = np.asarray(rhs(t, x, xd1))
            k2 = np.asarray(rhs(t + half, x + half * k1, xd2))
            k3 = np.asarray(rhs(t + half, x + half * k2, xd2))
            k4 = np.asarray(rhs(t + dt, x + dt * k3, xd4))
            x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        xs[n] = x
    return DdeBatchSolution(ts, xs)
