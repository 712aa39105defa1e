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
from typing import Optional, Tuple

import numpy as np

from .dde import DdeSolution, integrate_dde

__all__ = ["PertPiFluidModel"]


@dataclass
class PertPiFluidModel:
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

    def rhs(self, t: float, x: np.ndarray, history) -> np.ndarray:
        r = self.rtt
        xd = history(t - r)
        w, tq, p = x.tolist()  # Python floats: see PertRedFluidModel.rhs
        w_d = xd.item(0)
        p_eff = min(1.0, max(0.0, p)) if self.clamp else p
        dw = 1.0 / r - p_eff * w * w_d / (2.0 * r)
        dtq = self.n_flows * w / (r * self.capacity) - 1.0
        if self.clamp and tq <= 0.0 and dtq < 0.0:
            dtq = 0.0
        dp = self.k * (dtq + (tq - self.tq_ref) / self.m)
        if self.clamp:
            if p >= 1.0 and dp > 0.0:
                dp = 0.0
            elif p <= 0.0 and dp < 0.0:
                dp = 0.0
        return np.array((dw, dtq, dp))

    def simulate(
        self,
        duration: float,
        dt: float = 1e-3,
        x0: Optional[Tuple[float, float, float]] = None,
        method: str = "rk4",
    ) -> DdeSolution:
        start = np.array(x0 if x0 is not None else (1.0, 0.0, 0.0), dtype=float)
        return integrate_dde(self.rhs, start, (0.0, duration), dt, method=method)
