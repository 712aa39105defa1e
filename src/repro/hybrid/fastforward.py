"""Fluid fast-forward: skip the ensemble transient analytically.

A packet-level run spends its warm-up simulating every flow's slow-start
into steady state; a fluid ensemble standing in for most of the flows
need not.  The fluid model gets there by integration:
:func:`fluid_fast_forward` runs the DDE until the exported sending rate
settles (doubling the horizon until the trajectory tail is flat) and
returns the settled operating point.  The hybrid harness then injects the *settled* rate
from t = 0 (:func:`repro.hybrid.attach_background`), so the packet-side
warm-up stays short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..fluid.rates import RateTrajectory, equilibrium_rate, rate_trajectory

__all__ = ["FluidSteadyState", "fluid_fast_forward"]


@dataclass(frozen=True)
class FluidSteadyState:
    """Settled operating point of a fast-forwarded fluid model."""

    #: settled aggregate arrival rate in packets/second
    rate_pps: float
    #: rate the model's analytic equilibrium predicts (= its capacity)
    equilibrium_pps: float
    #: did the trajectory tail actually flatten within the horizon?
    converged: bool
    #: fluid horizon integrated (seconds)
    horizon: float
    #: the full exported trajectory (for plotting / diagnostics)
    trajectory: RateTrajectory


def fluid_fast_forward(
    model,
    horizon: Optional[float] = None,
    dt: float = 2e-3,
    max_horizon: float = 240.0,
    tail: float = 0.25,
    rel_tol: float = 0.02,
) -> FluidSteadyState:
    """Integrate *model* to steady state and return the settled rate.

    The integration starts *at the model's analytic equilibrium state*
    (that is the fast-forward: the ensemble transient is skipped
    algebraically, the DDE only has to confirm the point holds).  A
    stable model therefore settles within the first horizon; an
    unstable one falls into its limit cycle and the tail mean is the
    honest rate to inject.

    With ``horizon=None`` the integration starts at a few hundred RTTs
    and doubles until the trailing *tail* fraction of the rate
    trajectory is flat to within *rel_tol* (or *max_horizon* is hit —
    ``converged=False`` then flags an oscillatory/unstable model, e.g. a
    PERT/RED ensemble beyond its Figure 13 stability boundary).  An
    explicit *horizon* integrates exactly once.
    """
    x0 = model.equilibrium_state()
    h = horizon if horizon is not None else max(30.0, 300.0 * model.rtt)
    while True:
        traj = rate_trajectory(model, h, dt=dt, x0=x0)
        settled = traj.is_settled(tail, rel_tol)
        if settled or h >= max_horizon or horizon is not None:
            return FluidSteadyState(
                rate_pps=traj.steady_rate(tail),
                equilibrium_pps=equilibrium_rate(model),
                converged=settled,
                horizon=h,
                trajectory=traj,
            )
        h = min(2.0 * h, max_horizon)
