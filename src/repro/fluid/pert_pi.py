"""Fluid model of PERT emulating a PI controller (paper Section 6).

Window dynamics are shared with the PERT/RED model; the response
probability is driven by the continuous PI controller of eq. (16)/(17):

    p(t) = K * ( dTq(t) + (1/m) * ∫ dTq dt ),   dTq = Tq - Tq*

which in differential form (taken around p* = 0) is

    p'(t) = K * ( Tq'(t) + (Tq(t) - Tq*) / m ).

State vector: x1 = W (packets), x2 = Tq (seconds), x3 = p (probability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .dynamics import FloatDynamics

__all__ = ["PertPiFluidModel"]


@dataclass
class PertPiFluidModel(FloatDynamics):
    """PERT/PI fluid model with Theorem 2-style gains.

    ``k`` and ``m`` are the PI gains; ``tq_ref`` the queuing-delay target.
    """

    capacity: float = 100.0
    n_flows: int = 5
    rtt: float = 0.1
    k: float = 0.1
    m: float = 1.0
    tq_ref: float = 0.05
    clamp: bool = True

    x0_default = (1.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.n_flows <= 0 or self.rtt <= 0:
            raise ValueError("capacity, n_flows and rtt must be positive")
        if self.k <= 0 or self.m <= 0:
            raise ValueError("PI gains must be positive")

    def equilibrium(self) -> Tuple[float, float, float]:
        """(W*, p*, Tq*): the PI integrator forces Tq -> tq_ref."""
        w_star = self.rtt * self.capacity / self.n_flows
        p_star = 2.0 * self.n_flows**2 / (self.rtt**2 * self.capacity**2)
        return w_star, p_star, self.tq_ref

    def equilibrium_state(self) -> Tuple[float, float, float]:
        """:meth:`equilibrium` mapped onto the state vector (W, Tq, p)."""
        w_star, p_star, tq_star = self.equilibrium()
        return w_star, tq_star, p_star

    def dynamics(self):
        """Window dynamics and eq. (16)/(17), float contract."""
        r = self.rtt
        inv_r = 1.0 / r
        two_r = 2.0 * r
        r_cap = r * self.capacity
        n_flows = self.n_flows
        k = self.k
        m = self.m
        tq_ref = self.tq_ref
        clamp = self.clamp

        def rhs(t, x, xd):
            w, tq, p = x
            p_eff = p
            if clamp:  # min(1.0, max(0.0, p)), as comparisons
                p_eff = (p if p < 1.0 else 1.0) if p > 0.0 else 0.0
            dw = inv_r - p_eff * w * xd[0] / two_r
            dtq = n_flows * w / r_cap - 1.0
            if clamp and tq <= 0.0 and dtq < 0.0:
                dtq = 0.0
            dp = k * (dtq + (tq - tq_ref) / m)
            if clamp and ((p >= 1.0 and dp > 0.0) or (p <= 0.0 and dp < 0.0)):
                dp = 0.0
            return dw, dtq, dp

        return rhs
