"""Fluid model of router-based TCP/RED (Misra, Gong & Towsley 2000).

The comparison point for the paper's Section 5.4 discussion: identical
structure to the PERT/RED model except that

* the drop probability is computed from the *queue length* (packets),
  so the curve slope is ``L_RED = max_p / (max_th - min_th)`` per packet
  — this is where the stability condition picks up a factor C³ instead
  of PERT's C², and
* the probability reaching the sender is delayed by one RTT
  (``p(t - R)``), because marking happens at the router.

State vector: x1 = W (packets), x2 = q (packets), x3 = smoothed queue
average (packets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..laws import lpf_pole, ramp_slope
from .dynamics import FloatDynamics

__all__ = ["TcpRedFluidModel"]


@dataclass
class TcpRedFluidModel(FloatDynamics):
    """TCP/RED fluid model.

    ``min_th``/``max_th`` are queue-length thresholds in packets and
    ``delta`` is RED's sampling interval (≈ 1/C at the router).
    """

    capacity: float = 100.0
    n_flows: int = 5
    rtt: float = 0.1
    p_max: float = 0.1
    min_th: float = 5.0
    max_th: float = 10.0
    alpha: float = 0.99
    delta: Optional[float] = None
    clamp: bool = False

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.n_flows <= 0 or self.rtt <= 0:
            raise ValueError("capacity, n_flows and rtt must be positive")
        if self.delta is None:
            # RED averages once per packet: delta ~= 1/C.
            self.delta = 1.0 / self.capacity

    @property
    def l_red(self) -> float:
        """Slope of RED's marking curve in probability per packet."""
        return ramp_slope(self.p_max, self.min_th, self.max_th)

    @property
    def k_lpf(self) -> float:
        return lpf_pole(self.alpha, self.delta)

    def equilibrium(self) -> Tuple[float, float, float]:
        """(W*, p*, q*) with q* = min_th + p*/L_RED."""
        w_star = self.rtt * self.capacity / self.n_flows
        p_star = 2.0 * self.n_flows**2 / (self.rtt**2 * self.capacity**2)
        q_star = self.min_th + p_star / self.l_red
        return w_star, p_star, q_star

    def equilibrium_state(self) -> Tuple[float, float, float]:
        """:meth:`equilibrium` mapped onto the state vector (W, q, q_avg)."""
        w_star, _, q_star = self.equilibrium()
        return w_star, q_star, q_star

    def dynamics(self):
        """The Misra–Gong–Towsley dynamics, float contract."""
        r = self.rtt
        inv_r = 1.0 / r
        two_r = 2.0 * r
        capacity = self.capacity
        n_flows = self.n_flows
        min_th = self.min_th
        l_red = self.l_red
        k_lpf = self.k_lpf
        clamp = self.clamp

        def rhs(t, x, xd):
            w, q, s = x
            p = l_red * (xd[2] - min_th)  # router marks, felt an RTT later
            if clamp:
                p = min(1.0, max(0.0, p))
                w = max(w, 0.0)
            dw = inv_r - p * w * xd[0] / two_r
            dq = n_flows * w / r - capacity
            if clamp and q <= 0.0 and dq < 0.0:
                dq = 0.0
            return dw, dq, k_lpf * (s - q)

        return rhs
