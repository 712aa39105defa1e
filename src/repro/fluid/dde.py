"""Fixed-step integrator for delay differential equations (DDEs).

The paper's Section 5 analyses PERT with a fluid model of the form

    x'(t) = f(t, x(t), x(t - R))

(a single constant delay R; the general interface below allows several).
We integrate with classical RK4 over a fixed grid, evaluating delayed
states by linear interpolation in the stored solution history — the same
method-of-steps approach Matlab's ``dde23`` uses, simplified to a fixed
step.  Before ``t0`` the history is the constant initial state, matching
the paper's simulations which start from a constant initial point.

Three entry points share the grid and the arithmetic:

* :func:`integrate_dde_floats` — one system, the **float contract**: the
  state is a sequence of Python floats, ``history(t')`` returns a tuple
  of floats and the rhs returns a tuple or list.  This is the scalar
  kernel — the only scalar stepping loop — and what the registered
  fluid models run on; no numpy ufunc is involved.  History lookups use
  O(1) uniform-grid index arithmetic (the grid is built by repeated
  ``t += dt``, so the arithmetic guess is corrected by a one-ulp fix-up
  loop to land on exactly the interval ``searchsorted`` would pick).
* :func:`integrate_dde` — one system, the **array contract**: ``(dim,)``
  float64 arrays in and out, so an rhs can be written ``A @ x``.  An
  adapter over the float kernel for everything that is not a registered
  model; it carries no stepping arithmetic of its own.
* :func:`integrate_dde_batch` — B independent systems advanced together
  as ``(B, dim)`` array operations, each with its own delayed-time
  queries.

Every elementwise operation is the same IEEE-754 double operation in the
same order whether it runs on Python floats or inside a float64 ufunc,
so a batch run is bit-identical to B scalar runs and the two scalar
contracts agree bit for bit — the properties
``tests/fluid/test_dde_batch.py`` and
``tests/fluid/test_trajectory_pins.py`` pin exactly.

The lookup contract (``history(t')`` as seen by a right-hand side)
--------------------------------------------------------------------
* **Results cannot be modified.**  A result may be handed out again (see
  the memo), so the float contract returns tuples, and every array the
  other two contracts return has ``writeable=False`` — an interpolated
  row, the end-clamped last row and the pre-history ``x0`` row alike.
  An rhs that needs to modify a delayed state copies it first.
* **Before ``t0``** the lookup returns ``x0``; **at or past the end of
  the stored history** (``t' >= ts[-1]``: RK4 sub-steps of a lag shorter
  than the step) it holds the last stored row.
* **One lookup is memoised, keyed by the exact query** (scalar: the
  float ``t'``; batch: the bytes of the ``(B,)`` query vector).  RK4
  asks for ``t - R``, ``t + dt/2 - R`` twice and ``t + dt - R``, which
  is the next step's ``t - R``: two distinct interpolations per step
  in steady state, not four.
* **Validity under append.**  The history is append-only, so a lookup
  that lay strictly inside the stored grid keeps its value forever and
  the memo survives ``append``.  A lookup that was clamped to the end of
  the stored history would change once more history exists, so it is
  never memoised.

``tests/fluid/test_dde_lookup.py`` holds the memo-free ``searchsorted``
oracle these rules are checked against, and the lookup-count guard.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = [
    "DdeSolution",
    "DdeBatchSolution",
    "integrate_dde",
    "integrate_dde_floats",
    "integrate_dde_batch",
]


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


class _FloatHistory:
    """Append-only solution history read and written as Python floats.

    The rows live in the preallocated float64 solution arrays (the ones
    the :class:`DdeSolution` hands out), so memory does not grow with
    the lookups; ``eval`` returns tuples.  See the module docstring for
    the lookup contract (immutable results, one memoised lookup,
    validity under append).
    """

    def __init__(self, t0: float, x0: Sequence[float], n_steps: int,
                 dt: float):
        self.t0 = t0
        self.dt = dt
        self.ts = np.empty(n_steps + 1)
        self.xs = np.empty((n_steps + 1, len(x0)))
        self.ts[0] = t0
        self.xs[0] = x0
        self.filled = 1
        # indexing a memoryview yields a Python float; indexing the
        # array would box an ``np.float64`` at several times the cost
        self._tv = memoryview(self.ts)
        self._pre = tuple(x0)
        self._memo_t = math.nan  # never equal to a query
        self._memo_x = self._pre

    def append(self, t: float, x: Sequence[float]) -> None:
        self.ts[self.filled] = t
        self.xs[self.filled] = x
        self.filled += 1

    def eval(self, ti: float) -> Tuple[float, ...]:
        if ti == self._memo_t:
            return self._memo_x
        if ti <= self.t0:
            return self._pre
        n = self.filled
        if ti >= self._tv[n - 1]:
            # RK4 sub-steps may probe marginally past the stored history;
            # hold the last value (error is O(dt) on a smooth solution).
            # Not memoised: the answer changes once more history exists.
            return tuple(self.xs[n - 1].tolist())
        self._memo_x = out = self._interpolate(ti, n)
        self._memo_t = ti
        return out

    def _interpolate(self, ti: float, n: int) -> Tuple[float, ...]:
        """Interior lookup, ``t0 < ti < ts[n - 1]``."""
        # O(1) uniform-grid lookup.  The grid is built by accumulated
        # ``t += dt``, so ``(ti - t0) / dt`` can be off by one interval;
        # the fix-up loops restore the exact invariant ``searchsorted``
        # establishes: ts[idx] < ti <= ts[idx + 1].
        tv = self._tv
        idx = int((ti - self.t0) / self.dt)
        if idx > n - 2:
            idx = n - 2
        elif idx < 0:
            idx = 0
        while idx > 0 and tv[idx] >= ti:
            idx -= 1
        while tv[idx + 1] < ti:
            idx += 1
        t_lo = tv[idx]
        frac = (ti - t_lo) / (tv[idx + 1] - t_lo)
        rest = 1 - frac
        return tuple([a * rest + b * frac for a, b in
                      zip(self.xs[idx].tolist(), self.xs[idx + 1].tolist())])


def _check_problem(t_span, dt: float, method: str) -> Tuple[float, int, bool]:
    """Validate the grid arguments; ``(t0, n_steps, euler)``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if method not in ("rk4", "euler"):
        raise ValueError(f"unknown method {method!r}")
    t0, t1 = t_span
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    return t0, int(round((t1 - t0) / dt)), method == "euler"


def integrate_dde_floats(
    rhs: Callable[[float, Sequence[float], Callable[[float], Tuple[float, ...]]],
                  Sequence[float]],
    x0: Sequence[float],
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
) -> DdeSolution:
    """Integrate a float-contract ``x' = rhs(t, x, history)`` over *t_span*.

    The scalar kernel: the one stepping loop every single-system
    integration runs (:func:`integrate_dde` adapts array right-hand
    sides onto it).  Nothing in it touches a numpy ufunc.

    Parameters
    ----------
    rhs:
        Callable receiving the current time, the current state as a
        sequence of ``dim`` Python floats, and ``history(t')`` returning
        the (interpolated) state at any earlier time as a tuple of
        floats; must return the ``dim`` derivatives as a tuple or list
        of floats.
    x0:
        Initial state; also the constant pre-history.
    method:
        ``"rk4"`` (default) or ``"euler"``.

    The grid is ``t0, t0 + dt, ...`` built by repeated addition over
    ``round((t1 - t0) / dt)`` steps, so the run ends at that many steps
    past ``t0`` — not at ``t1`` when the span is not a multiple of *dt*.
    """
    t, n_steps, euler = _check_problem(t_span, dt, method)
    x = [float(v) for v in x0]
    dim = len(x)
    hist = _FloatHistory(t, x, n_steps, dt)
    history = hist.eval
    append = hist.append
    half = dt / 2
    sixth = dt / 6.0
    for _ in range(n_steps):
        k1 = rhs(t, x, history)
        if len(k1) != dim:
            raise ValueError(f"rhs returned {len(k1)} derivatives for "
                             f"{dim} state components")
        if euler:
            x = [a + dt * b for a, b in zip(x, k1)]
        else:
            k2 = rhs(t + half, [a + half * b for a, b in zip(x, k1)], history)
            k3 = rhs(t + half, [a + half * b for a, b in zip(x, k2)], history)
            k4 = rhs(t + dt, [a + dt * b for a, b in zip(x, k3)], history)
            x = [a + sixth * (b + 2 * c + 2 * d + e)
                 for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        t += dt
        append(t, x)
    return DdeSolution(hist.ts, hist.xs)


def integrate_dde(
    rhs: Callable[[float, np.ndarray, Callable[[float], np.ndarray]], np.ndarray],
    x0: Sequence[float],
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
) -> DdeSolution:
    """Integrate an array-contract ``x' = rhs(t, x, history)`` over *t_span*.

    Parameters
    ----------
    rhs:
        Callable receiving the current time, the current state as a
        ``(dim,)`` float64 array, and a ``history(t')`` function
        returning the (interpolated) state at any earlier time as a
        read-only ``(dim,)`` float64 array; must return the state
        derivative as an array (anything that broadcasts to ``(dim,)``).
    x0:
        Initial state (list, tuple or 1-D array); also the constant
        pre-history.
    method:
        ``"rk4"`` (default) or ``"euler"``.

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

    def float_rhs(t, x, history):
        def lookup(ti):
            out = np.array(history(ti))
            out.setflags(write=False)
            return out

        dx = np.asarray(rhs(t, np.array(x), lookup), dtype=float)
        return np.broadcast_to(dx, start.shape).tolist()

    return integrate_dde_floats(float_rhs, start.tolist(), t_span, dt, method)


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

    @property
    def batch_size(self) -> int:
        return self.y.shape[1]

    def __len__(self) -> int:
        return self.y.shape[1]

    def __getitem__(self, b: int) -> DdeSolution:
        """Member *b*'s trajectory as an ordinary :class:`DdeSolution`."""
        return DdeSolution(self.t, self.y[:, b, :])

    def component(self, i: int) -> np.ndarray:
        """Component *i* of every member, shape ``(len(t), batch)``."""
        return self.y[:, :, i]


class _BatchHistory:
    """Per-member delayed-state lookup over the shared uniform grid.

    ``eval`` takes a ``(B,)`` vector of query times (or a scalar,
    broadcast) and gathers each member's interpolated state — the same
    guess-and-fix-up index arithmetic as :meth:`_FloatHistory.eval`, applied
    elementwise, with identical interpolation arithmetic so batch and
    scalar runs agree bit for bit, and the same lookup contract (see the
    module docstring).
    """

    def __init__(self, t0: float, x0: np.ndarray, n_steps: int, dt: float):
        batch, dim = x0.shape
        self.t0 = t0
        self.dt = dt
        self.ts = np.empty(n_steps + 1)
        self.xs = np.empty((n_steps + 1, batch, dim))
        self.ts[0] = t0
        self.xs[0] = x0
        self.filled = 1
        self._rows = np.arange(batch)
        # one-row-ahead views: ts[idx + 1] / xs[idx + 1] without idx + 1
        self._ts1 = self.ts[1:]
        self._xs1 = self.xs[1:]
        self._pre = self.xs[0]
        self._pre.setflags(write=False)
        self._memo_key = None
        self._memo_x = self._pre

    def append(self, t: float, x: np.ndarray) -> None:
        self.ts[self.filled] = t
        self.xs[self.filled] = x
        self.filled += 1

    def eval(self, ti) -> np.ndarray:
        if (type(ti) is np.ndarray and ti.dtype == np.float64
                and ti.shape == self._rows.shape):
            tq = ti
        else:
            tq = np.broadcast_to(np.asarray(ti, dtype=float),
                                 self._rows.shape)
        key = tq.tobytes()
        if key == self._memo_key:
            return self._memo_x
        n = self.filled
        t0 = self.t0
        t_max = tq.max()
        if n == 1 or t_max <= t0:
            # every member is still in (or clamped to) the pre-history
            return self._pre
        out = self._interpolate(tq, n)
        # boundary rows: _interpolate kept their idx in range, overwrite
        if tq.min() <= t0:
            lo = tq <= t0
            out[lo] = self.xs[0, self._rows[lo]]
        last = self.ts[n - 1]
        if t_max >= last:
            # not memoised: an end-clamped row changes once more history
            # exists (see the module docstring)
            hi = tq >= last
            out[hi] = self.xs[n - 1, self._rows[hi]]
        else:
            self._memo_key = key
            self._memo_x = out
        out.setflags(write=False)
        return out

    def _interpolate(self, tq: np.ndarray, n: int) -> np.ndarray:
        """Interpolate every row as if interior (boundary rows: any value)."""
        ts = self.ts
        ts1 = self._ts1
        rows = self._rows
        idx = ((tq - self.t0) / self.dt).astype(np.intp)
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, n - 2, out=idx)
        t_lo = ts[idx]
        t_hi = ts1[idx]
        if np.count_nonzero(t_lo >= tq) or np.count_nonzero(t_hi < tq):
            # some row missed its interval by the one-ulp grid error, or
            # sits on a boundary: fix-up to the searchsorted invariant
            # ts[idx] < tq <= ts[idx + 1] (interior rows only; boundary
            # rows are overwritten by eval, the clamp keeps them in range)
            last = ts[n - 1]
            while True:
                dec = (idx > 0) & (ts[idx] >= tq)
                if not dec.any():
                    break
                idx[dec] -= 1
            while True:
                inc = (idx < n - 2) & (ts1[idx] < tq) & (tq < last)
                if not inc.any():
                    break
                idx[inc] += 1
            t_lo = ts[idx]
            t_hi = ts1[idx]
        frac = (tq - t_lo) / (t_hi - t_lo)
        return (self.xs[idx, rows] * (1 - frac)[:, None]
                + self._xs1[idx, rows] * frac[:, None])


def _advance(rhs, x, t, dt, n_steps, euler, hist) -> None:
    """Step the ``(B, dim)`` block *x* from *t*, appending every state.

    The stepping arithmetic is :func:`integrate_dde_floats`'s, the same
    expression applied elementwise, which is what makes a batch member
    bit-identical to its scalar run.
    """
    history = hist.eval
    half = dt / 2
    sixth = dt / 6.0
    for _ in range(n_steps):
        if euler:
            x = x + dt * np.asarray(rhs(t, x, history))
        else:
            k1 = np.asarray(rhs(t, x, history))
            k2 = np.asarray(rhs(t + half, x + half * k1, history))
            k3 = np.asarray(rhs(t + half, x + half * k2, history))
            k4 = np.asarray(rhs(t + dt, x + dt * k3, history))
            x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        hist.append(t, x)


def integrate_dde_batch(
    rhs: Callable[[float, np.ndarray, Callable], np.ndarray],
    x0: np.ndarray,
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
) -> DdeBatchSolution:
    """Advance B independent DDE systems together as array operations.

    Parameters
    ----------
    rhs:
        Callable ``rhs(t, X, history) -> (B, dim)`` where ``X`` is the
        ``(B, dim)`` state block and ``history(t')`` accepts a scalar or
        a ``(B,)`` vector of per-member query times, returning the
        ``(B, dim)`` interpolated delayed states.
    x0:
        ``(B, dim)`` array of initial states (also the constant
        pre-history of each member).

    All members share the time grid; delays may differ per member via
    vector-valued history queries.  The stepping arithmetic mirrors
    :func:`integrate_dde` exactly, so the trajectory of member *b*
    equals a scalar integration of that member bit for bit.
    """
    t, n_steps, euler = _check_problem(t_span, dt, method)
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 2:
        raise ValueError("x0 must have shape (batch, dim)")
    hist = _BatchHistory(t, x, n_steps, dt)
    _advance(rhs, x, t, dt, n_steps, euler, hist)
    return DdeBatchSolution(hist.ts, hist.xs)
