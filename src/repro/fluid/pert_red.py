"""Fluid model of PERT emulating RED (paper eq. 2-7 and 14).

State vector (paper Section 5.3 notation):

    x1 = W(t)      congestion window        [packets]
    x2 = raw queuing-delay estimate Tq(t)   [seconds]
    x3 = smoothed (LPF) queuing delay       [seconds]

Dynamics (eq. 14):

    x1' = 1/R - L * x1(t) * x1(t-R) * (x3(t-R) - T_min) / (2R)
    x2' = N/(R*C) * x1(t) - 1
    x3' = K * x3(t) - K * x2(t)

with L = p_max / (T_max - T_min) (the RED-curve slope) and
K = ln(alpha) / delta < 0 (the continuous-time LPF pole).

``clamp=True`` restricts the emulated drop probability
``p = L (x3 - T_min)`` to [0, 1] and the queue delay x2 to be
non-negative — the physically meaningful variant used when trajectories
stray far from equilibrium; the paper's linear analysis corresponds to
``clamp=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..laws import lpf_pole, ramp_slope
from .dde import DdeBatchSolution, integrate_dde_batch
from .dynamics import FloatDynamics

__all__ = ["PertRedFluidModel", "simulate_batch"]


@dataclass
class PertRedFluidModel(FloatDynamics):
    """PERT/RED fluid model with the paper's Figure 13 defaults.

    The default start ``(1, 1, 1)`` is the one Figure 13 uses.

    Parameters
    ----------
    capacity:
        Link capacity C in packets/second.
    n_flows:
        Number of PERT flows N.
    rtt:
        Round-trip delay R in seconds (assumed constant as in Sec. 5.2).
    p_max, t_min, t_max:
        Emulated gentle-RED curve parameters (probability / seconds).
    alpha:
        LPF history weight of the srtt signal (paper: 0.99).
    delta:
        Sampling interval of the LPF in seconds.
    """

    capacity: float = 100.0
    n_flows: int = 5
    rtt: float = 0.1
    p_max: float = 0.1
    t_min: float = 0.05
    t_max: float = 0.1
    alpha: float = 0.99
    delta: float = 1e-4
    #: multiplicative decrease factor β of the window dynamics (eq. 3).
    #: The paper's analysis uses 0.5 to compare against TCP/RED and notes
    #: "results for β = 0.35 can be similarly obtained" — set 0.35 to
    #: model PERT's actual early decrease.
    beta_decrease: float = 0.5
    clamp: bool = False
    #: replace the delayed window term W(t-R) by W(t), the approximation
    #: the paper's Section 5.3 uses to explain why the theoretical
    #: boundary (171 ms) is slightly conservative (instability at 175 ms)
    approximate_self_delay: bool = False
    #: optional time-varying flow count N(t) (paper eq. 7 allows it);
    #: when set, it overrides ``n_flows`` inside the dynamics, enabling
    #: fluid-level studies of flow arrivals/departures (cf. Figure 12)
    n_of_t: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.n_flows <= 0 or self.rtt <= 0:
            raise ValueError("capacity, n_flows and rtt must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 <= self.t_min < self.t_max:
            raise ValueError("need 0 <= t_min < t_max")
        if not 0 < self.beta_decrease < 1:
            raise ValueError("beta_decrease must be in (0, 1)")

    # ------------------------------------------------------------------
    @property
    def l_pert(self) -> float:
        """Slope L_PERT = p_max / (T_max - T_min)  (paper eq. 10)."""
        return ramp_slope(self.p_max, self.t_min, self.t_max)

    @property
    def k_lpf(self) -> float:
        """LPF pole K = ln(alpha) / delta < 0  (paper eq. 10)."""
        return lpf_pole(self.alpha, self.delta)

    def equilibrium(self) -> Tuple[float, float, float]:
        """Stationary point (W*, p*, Tq*) generalising eq. (9).

        W* = RC/N,  p* = 1/(2β·W*²)... more precisely, setting the
        window derivative to zero gives p* = 2β'/W*² where the paper's
        β = 0.5 recovers p* = 2N²/(R²C²); Tq* = T_min + p*/L.
        """
        w_star = self.rtt * self.capacity / self.n_flows
        p_star = 1.0 / (self.beta_decrease * w_star**2)
        tq_star = self.t_min + p_star / self.l_pert
        return w_star, p_star, tq_star

    def equilibrium_state(self) -> Tuple[float, float, float]:
        """:meth:`equilibrium` mapped onto the state vector (W, Tq, s)."""
        w_star, _, tq_star = self.equilibrium()
        return w_star, tq_star, tq_star

    # ------------------------------------------------------------------
    def dynamics(self):
        """Eq. (14), float contract."""
        r = self.rtt
        inv_r = 1.0 / r
        r_cap = r * self.capacity
        beta = self.beta_decrease
        t_min = self.t_min
        l_pert = self.l_pert
        k_lpf = self.k_lpf
        clamp = self.clamp
        approx = self.approximate_self_delay
        n_of_t = self.n_of_t
        n_flows = self.n_flows

        def rhs(t, x, xd):
            w, tq, s = x
            w_d = w if approx else xd[0]
            p = l_pert * (xd[2] - t_min)
            if clamp:
                p = min(1.0, max(0.0, p))
                w = max(w, 0.0)
            dw = inv_r - beta * p * w * w_d / r
            n = n_flows if n_of_t is None else n_of_t(t)
            dtq = n * w / r_cap - 1.0
            if clamp and tq <= 0.0 and dtq < 0.0:
                dtq = 0.0
            return dw, dtq, k_lpf * (s - tq)

        return rhs


# ----------------------------------------------------------------------
# batched integration across a parameter sweep
# ----------------------------------------------------------------------
def simulate_batch(
    models: Sequence[PertRedFluidModel],
    duration: float,
    dt: float = 1e-3,
    x0=None,
    method: str = "rk4",
) -> DdeBatchSolution:
    """Integrate many :class:`PertRedFluidModel` instances in lockstep.

    All members share the time grid but may differ in every numeric
    parameter, including the RTT (each member's own lag).  The
    right-hand side evaluates the same arithmetic as
    :meth:`PertRedFluidModel.dynamics` elementwise, so member *b*'s trajectory
    is bit-identical to ``models[b].simulate(duration, dt, ...)`` — this
    is a throughput optimisation for stability sweeps (Figure 13's
    parameter grids), not an approximation.

    Structural options must be uniform across the batch: ``clamp`` and
    ``approximate_self_delay`` flags must agree, and time-varying flow
    counts (``n_of_t``) are not supported (the closure would have to be
    evaluated per member anyway, forfeiting the vectorisation).

    *x0* is either one ``(3,)`` start shared by all members or a
    ``(B, 3)`` array; default ``(1, 1, 1)`` as in Figure 13.
    """
    if not models:
        raise ValueError("need at least one model")
    clamp = models[0].clamp
    approx = models[0].approximate_self_delay
    for m in models:
        if m.clamp != clamp or m.approximate_self_delay != approx:
            raise ValueError(
                "batch members must share clamp/approximate_self_delay flags"
            )
        if m.n_of_t is not None:
            raise ValueError("n_of_t models cannot be batch-integrated")
    batch = len(models)
    # Parameter vectors come from the scalar properties so batch and
    # scalar runs start from exactly the same float64 constants.
    r = np.array([m.rtt for m in models])
    cap = np.array([m.capacity for m in models])
    n_flows = np.array([float(m.n_flows) for m in models])
    beta = np.array([m.beta_decrease for m in models])
    t_min = np.array([m.t_min for m in models])
    l_arr = np.array([m.l_pert for m in models])
    k_arr = np.array([m.k_lpf for m in models])

    inv_r = 1.0 / r
    r_cap = r * cap

    def rhs(t: float, x: np.ndarray, xd: np.ndarray) -> np.ndarray:
        w = x[:, 0]
        tq = x[:, 1]
        w_d = w if approx else xd[:, 0]
        s_d = xd[:, 2]
        p = l_arr * (s_d - t_min)
        if clamp:
            p = np.minimum(1.0, np.maximum(0.0, p))
            w = np.maximum(w, 0.0)
        dx = np.empty((batch, 3))
        dx[:, 0] = inv_r - beta * p * w * w_d / r
        dtq = n_flows * w / r_cap - 1.0
        if clamp:
            dtq = np.where((tq <= 0.0) & (dtq < 0.0), 0.0, dtq)
        dx[:, 1] = dtq
        dx[:, 2] = k_arr * (x[:, 2] - tq)
        return dx

    start = np.array(x0 if x0 is not None else (1.0, 1.0, 1.0), dtype=float)
    if start.ndim == 1:
        start = np.broadcast_to(start, (batch, start.size))
    elif start.shape[0] != batch:
        raise ValueError(f"x0 has {start.shape[0]} rows for {batch} models")
    return integrate_dde_batch(rhs, start, (0.0, duration), dt, method=method,
                               lag=r)
