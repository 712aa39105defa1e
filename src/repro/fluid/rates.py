"""Sending-rate trajectories: the fluid side of the hybrid coupling.

Every registered fluid model (:mod:`repro.fluid.model`) describes
``n_flows`` identical flows whose per-flow congestion window W(t) is the
first state component, so the aggregate arrival rate the ensemble offers
at the bottleneck is the same expression for all of them:

    r(t) = N(t) * W(t) / R        [packets / second]

This module integrates a model and exports that trajectory as a
:class:`RateTrajectory` (rate sampled on the DDE grid) whose settled
tail rate :func:`repro.hybrid.fluid_fast_forward` hands to
:class:`repro.hybrid.BackgroundSource`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dde import DdeSolution

#: numpy >= 2.0 spells it ``trapezoid``; 1.x only has ``trapz`` (removed
#: in 2.4).  Same arithmetic.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

__all__ = [
    "RateTrajectory",
    "rate_trajectory",
    "equilibrium_rate",
]


@dataclass(frozen=True)
class RateTrajectory:
    """Aggregate fluid arrival rate sampled on the integrator's grid.

    ``rate_pps[i]`` is the ensemble rate N·W(times[i])/R in
    packets/second.  :meth:`steady_rate` estimates the settled rate
    from the tail.
    """

    times: np.ndarray
    rate_pps: np.ndarray

    def __post_init__(self) -> None:
        if self.times.shape != self.rate_pps.shape or self.times.ndim != 1:
            raise ValueError("times and rate_pps must be equal-length 1-D arrays")
        if self.times.size < 2:
            raise ValueError("need at least two samples")

    @property
    def duration(self) -> float:
        """Covered fluid-time horizon in seconds."""
        return float(self.times[-1] - self.times[0])

    def _mean_rate(self, start: float, end: float) -> float:
        """Trapezoidal mean of the rate over [start, end]."""
        lo = np.searchsorted(self.times, start, side="left")
        hi = np.searchsorted(self.times, end, side="right")
        ts = np.concatenate(([start], self.times[lo:hi], [end]))
        rs = np.concatenate((
            [np.interp(start, self.times, self.rate_pps)],
            self.rate_pps[lo:hi],
            [np.interp(end, self.times, self.rate_pps)],
        ))
        span = end - start
        if span <= 0:
            return float(rs[0])
        return float(_trapezoid(rs, ts) / span)

    def steady_rate(self, tail: float = 0.25) -> float:
        """Mean rate over the trailing *tail* fraction of the horizon."""
        if not 0 < tail <= 1:
            raise ValueError("tail must be in (0, 1]")
        start = float(self.times[-1]) - tail * self.duration
        return self._mean_rate(start, float(self.times[-1]))

    def is_settled(self, tail: float = 0.25, rel_tol: float = 0.05) -> bool:
        """Has the rate stopped moving over the trailing window?

        True when the peak-to-peak excursion of the tail is within
        *rel_tol* of the tail mean (absolute floor of one packet/s for
        near-zero rates).
        """
        start = float(self.times[-1]) - tail * self.duration
        lo = np.searchsorted(self.times, start, side="left")
        window = self.rate_pps[lo:]
        if window.size < 2:
            return False
        mean = float(np.mean(window))
        ptp = float(np.ptp(window))
        return ptp <= rel_tol * max(abs(mean), 1.0)


def _window_component(solution: DdeSolution) -> np.ndarray:
    """Per-flow window W(t) on the solution grid (first state component)."""
    return solution.y[:, 0]


def rate_trajectory(
    model,
    duration: float,
    dt: float = 1e-3,
    x0: Optional[Tuple[float, float, float]] = None,
    method: str = "rk4",
) -> RateTrajectory:
    """Integrate *model* and export its aggregate arrival-rate trajectory.

    *model* is any :class:`repro.fluid.FluidModel`; the rate is
    N·W(t)/R with a time-varying N(t) honoured when the model defines
    one (``n_of_t``, paper eq. 7).  Negative window excursions of the
    unclamped linear-analysis variants are floored at zero — an arrival
    process cannot send at a negative rate.
    """
    sol = model.simulate(duration, dt=dt, x0=x0, method=method)
    w = np.maximum(_window_component(sol), 0.0)
    n_of_t = model.n_of_t
    if n_of_t is not None:
        n = np.array([float(n_of_t(t)) for t in sol.t])
    else:
        n = float(model.n_flows)
    rate = n * w / model.rtt
    return RateTrajectory(times=np.asarray(sol.t, dtype=float),
                          rate_pps=np.asarray(rate, dtype=float))


def equilibrium_rate(model) -> float:
    """Aggregate arrival rate N·W*/R at the model's stationary point.

    For every registered model W* = R·C/N, so this is exactly the
    model's ``capacity`` — the fluid ensemble settles at full
    utilisation of the capacity share it was given.  Exposed as a
    function (rather than inlining ``model.capacity``) so hybrid code
    stays honest if a future model's equilibrium is not work-conserving.
    """
    w_star = model.equilibrium()[0]
    return model.n_flows * w_star / model.rtt
