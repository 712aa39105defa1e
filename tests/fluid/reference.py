"""The float kernel's executable specification: the plain stepping loop.

:func:`integrate_floats` is ``repro.fluid.dde.integrate_dde_floats`` as
it was before the kernel became a source template compiled per state
dimension, moved here unchanged: the state, the four RK4 stages and the
interpolated rows are lists and tuples walked per component with
``zip``.  It is deliberately the plainest loop that implements the float
contract, so "the generated kernel is correct" means "it is
indistinguishable from this" — the same grid, the same lookups, the same
IEEE operations in the same order, bit for bit
(``tests/fluid/test_dde_reference.py``).

Do not optimise this file.  A change to the stepping arithmetic is made
here first, in the obvious way, and then in the template.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.fluid.dde import DdeSolution, _check_problem, _grid

__all__ = ["integrate_floats"]


def ring_interpolator(tv: memoryview, ring: list, t0: float, dt: float):
    """The float kernel's interior lookup over the rows kept in *ring*.

    *tv* is the grid (indexing a memoryview yields a Python float; the
    array would box an ``np.float64``) and row ``i`` sits at
    ``ring[i % len(ring)]``.
    """
    size = len(ring)

    def interpolate(ti: float, n: int) -> Tuple[float, ...]:
        """``x(ti)`` for ``t0 < ti < ts[n - 1]``, rows ``0 .. n - 1`` stored."""
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
        return tuple([a * rest + b * frac for a, b in
                      zip(ring[idx % size], ring[(idx + 1) % size])])

    return interpolate


def integrate_floats(
    rhs: Callable[[float, Sequence[float], Optional[Tuple[float, ...]]],
                  Sequence[float]],
    x0: Sequence[float],
    t_span: Tuple[float, float],
    dt: float,
    method: str = "rk4",
    lag: Optional[float] = None,
) -> DdeSolution:
    """Integrate a float-contract ``x' = rhs(t, x, xd)`` over *t_span*."""
    t, n_steps, euler = _check_problem(t_span, dt, method, lag)
    x = [float(v) for v in x0]
    dim = len(x)
    ts = _grid(t, dt, n_steps)
    xs = np.empty((n_steps + 1, dim))
    xs[0] = x
    t0 = t
    delayed = lag is not None
    pre = last = tuple(x)
    xd = pre if delayed else None  # the first k1 reads t0 - lag
    if delayed:
        # an interval read ``lag`` back starts at most lag / dt + 2 rows
        # behind the newest, one more with the grid's rounding
        ring = [pre] * (int(min(lag / dt, n_steps)) + 4)
        size = len(ring)
        interpolate = ring_interpolator(memoryview(ts), ring, t0, dt)
    fresh = False  # k1 cannot reuse the previous k4's row
    half = dt / 2
    sixth = dt / 6.0
    for n in range(1, n_steps + 1):
        # rows 0 .. n - 1 are stored, the newest (``last``) at ``t``
        if fresh:
            tq = t - lag
            xd = pre if tq <= t0 else last if tq >= t else interpolate(tq, n)
        k1 = rhs(t, x, xd)
        if len(k1) != dim:
            raise ValueError(f"rhs returned {len(k1)} derivatives for "
                             f"{dim} state components")
        if euler:
            x = [a + dt * b for a, b in zip(x, k1)]
            fresh = delayed
        else:
            if delayed:
                tq = (t + half) - lag
                xd = pre if tq <= t0 else last if tq >= t else interpolate(tq, n)
            k2 = rhs(t + half, [a + half * b for a, b in zip(x, k1)], xd)
            k3 = rhs(t + half, [a + half * b for a, b in zip(x, k2)], xd)
            if delayed:
                # also the next step's t - lag; an end-clamped row is not
                # that step's answer, one more row will be stored by then
                tq = (t + dt) - lag
                xd = pre if tq <= t0 else last if tq >= t else interpolate(tq, n)
                fresh = tq >= t
            k4 = rhs(t + dt, [a + dt * b for a, b in zip(x, k3)], xd)
            x = [a + sixth * (b + 2 * c + 2 * d + e)
                 for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        t += dt
        xs[n] = x
        if delayed:
            last = ring[n % size] = tuple(x)
    return DdeSolution(ts, xs)
