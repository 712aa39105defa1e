"""The fluid model (paper Sections 5-6): one set of equations, any law.

N identical long-lived flows share a bottleneck of C packets/second
over a constant round-trip delay R.  The state vector is

    x1 = W(t)   the per-flow congestion window            [packets]
    x2 = q(t)   the congestion signal: the queuing delay [s] for a
                ``"delay"`` signal (the end host), the queue [packets]
                for a ``"queue"`` signal (the router)
    x3          the law's own state: the low-pass-filtered signal s for
                a curve, the probability p for a controller

and :meth:`FluidModel.dynamics` writes each equation once:

    W' = 1/R - β·p·W(t)·W(t-R)/R                                (eq. 3)
    q' = N·W/a - b,   (a, b) = (R·C, 1) for a delay, (R, C) for a queue
    curve:       p = law.probability(s(t-R)),   s' = K·(s - q)    (eq. 14)
    controller:  p = x3,                        p' = law.rate(q, q')  (eq. 16/17)

with K = ln(alpha)/delta < 0 the pole of the signal's EWMA.  The law is
a :mod:`repro.laws` object — the layer the packet engine's router and end
host adapters call — so adding a law to the fluid analysis is a class in
``laws.py`` plus a parameter set here.

A **parameter set** is a small dataclass registered in
:data:`FLUID_MODELS`: its keywords and defaults, the ``law`` they build
and the ``signal`` it is fed.  ``tcp_red`` and ``pert_pi`` use β = 0.5,
the paper's analysis setting; their equations' ``/(2R)`` is that
β exactly, because scaling by a power of two is exact.

``clamp=True`` is the physically meaningful variant for trajectories far
from equilibrium: p is limited to [0, 1], W is floored at 0 and the queue
is held at 0 (a controller's p' is also stopped at the bounds of
[0, 1]).  The paper's linear analysis, :meth:`FluidModel.linearization`,
is the unclamped model.

Everything is float-contract (see :func:`repro.fluid.integrate_dde_floats`);
:func:`simulate_batch` integrates many ``pert_red`` sets at once.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..laws import LinearRamp, PiResponse, lpf_pole
from .dde import DdeBatchSolution, DdeSolution, integrate_dde_batch, integrate_dde_floats

__all__ = [
    "FluidModel",
    "PertRed",
    "TcpRed",
    "PertPi",
    "FLUID_MODELS",
    "fluid_model_params",
    "make_fluid_model",
    "simulate_batch",
]


class FluidModel:
    """The fluid model every parameter set runs: equations, equilibrium,
    linearization and integration, each stated once.

    A subclass is a dataclass holding ``capacity``, ``n_flows``, ``rtt``
    and ``clamp`` plus its law's parameters (and, for a curve, the EWMA's
    ``alpha`` and ``delta``), and derives :attr:`law`.  The class
    attributes below are the defaults a parameter set may make keywords.
    """

    #: default initial state (also the constant pre-history)
    x0_default: Tuple[float, ...] = (1.0, 1.0, 1.0)
    #: what the law is fed: ``"delay"`` [s] or ``"queue"`` [packets]
    signal = "delay"
    #: multiplicative decrease factor β of the window equation (eq. 3)
    beta_decrease = 0.5
    #: W(t) in place of W(t-R) in the window equation (paper Sec. 5.3)
    approximate_self_delay = False
    #: time-varying flow count N(t) (paper eq. 7), overriding ``n_flows``
    n_of_t: Optional[Callable[[float], float]] = None

    @property
    def law(self):
        """The :mod:`repro.laws` object giving ``p``: a curve with
        ``probability(s)`` and ``slope``, or a controller with
        ``rate(q, dq)``, ``k``, ``m`` and ``target_delay``."""
        raise NotImplementedError

    def __post_init__(self) -> None:
        if not (self.capacity > 0 and self.n_flows > 0 and self.rtt > 0):
            raise ValueError("capacity, n_flows and rtt must be positive")
        if not 0 < self.beta_decrease < 1:
            raise ValueError("beta_decrease must be in (0, 1)")
        # the law's constructor checks its own parameters
        if not self._controller(self.law):
            if not 0 < self.alpha < 1:
                raise ValueError("alpha must be in (0, 1)")
            if not self.delta > 0:
                raise ValueError("delta must be positive")

    @staticmethod
    def _controller(law) -> bool:
        return hasattr(law, "rate")

    @property
    def k_lpf(self) -> float:
        """A curve's LPF pole K = ln(alpha) / delta < 0  (paper eq. 10)."""
        return lpf_pole(self.alpha, self.delta)

    def _queue_scale(self) -> Tuple[float, float]:
        """``(a, b)`` of the queue equation ``q' = N·W/a - b``."""
        if self.signal == "delay":
            return self.rtt * self.capacity, 1.0
        return self.rtt, self.capacity

    # ------------------------------------------------------------------
    def equilibrium(self) -> Tuple[float, float, float]:
        """Stationary point (W*, p*, q*) generalising eq. (9).

        W* = RC/N; the window equation gives p* = 1/(β·W*²), which
        β = 0.5 makes 2N²/(RC)²; a curve settles at q* = lo + p*/L, a
        controller's integrator at its target.
        """
        w_star = self.rtt * self.capacity / self.n_flows
        p_star = 1.0 / (self.beta_decrease * w_star**2)
        law = self.law
        if self._controller(law):
            return w_star, p_star, law.target_delay
        return w_star, p_star, law.lo + p_star / law.slope

    def equilibrium_state(self) -> Tuple[float, float, float]:
        """:meth:`equilibrium` mapped onto the state vector (W, q, s or p)."""
        w_star, p_star, q_star = self.equilibrium()
        if self._controller(self.law):
            return w_star, q_star, p_star
        return w_star, q_star, q_star

    # ------------------------------------------------------------------
    def dynamics(self) -> Callable:
        """Bind this model's constants; return its float-contract rhs.

        Called once per :meth:`simulate` (never inside the stepping
        loop), so a parameter changed between two calls is honoured.
        """
        r = self.rtt
        inv_r = 1.0 / r
        beta = self.beta_decrease
        a, b = self._queue_scale()
        law = self.law
        controller = self._controller(law)
        probability = None if controller else law.probability
        rate = law.rate if controller else None
        k_lpf = None if controller else self.k_lpf
        clamp = self.clamp
        approx = self.approximate_self_delay
        n_of_t = self.n_of_t
        n_flows = self.n_flows

        def rhs(t, x, xd):
            w, q, z = x
            w_d = w if approx else xd[0]
            p = z if controller else probability(xd[2])
            if clamp:
                # min(1.0, max(0.0, p)) and max(w, 0.0) as the
                # comparisons the builtins make (a NaN p clamps to 0.0)
                p = (p if p < 1.0 else 1.0) if p > 0.0 else 0.0
                if w < 0.0:
                    w = 0.0
            dw = inv_r - beta * p * w * w_d / r
            dq = (n_flows if n_of_t is None else n_of_t(t)) * w / a - b
            if clamp and q <= 0.0 and dq < 0.0:
                dq = 0.0
            if controller:
                dz = rate(q, dq)
                if clamp and ((z >= 1.0 and dz > 0.0) or (z <= 0.0 and dz < 0.0)):
                    dz = 0.0
                return dw, dq, dz
            return dw, dq, k_lpf * (z - q)

        return rhs

    def linearization(self) -> Tuple[np.ndarray, np.ndarray]:
        """Jacobians ``(A, B)`` of :meth:`dynamics` (unclamped) at
        :meth:`equilibrium`: ``x' ≈ A x(t) + B x(t - R)`` around it."""
        w_star, p_star, _ = self.equilibrium()
        r = self.rtt
        beta = self.beta_decrease
        a, _ = self._queue_scale()
        law = self.law
        a11 = -beta * p_star * w_star / r
        dq_dw = self.n_flows / a
        A = np.zeros((3, 3))
        B = np.zeros((3, 3))
        if self.approximate_self_delay:
            A[0, 0] = 2 * a11
        else:
            A[0, 0] = B[0, 0] = a11
        A[1, 0] = dq_dw
        if self._controller(law):
            A[0, 2] = -beta * w_star**2 / r
            A[2, 0] = law.k * dq_dw
            A[2, 1] = law.k / law.m
        else:
            B[0, 2] = -beta * law.slope * w_star**2 / r
            k = self.k_lpf
            A[2, 1] = -k
            A[2, 2] = k
        return A, B

    # ------------------------------------------------------------------
    def rhs(self, t: float, x: Sequence[float],
            xd: Sequence[float]) -> Tuple[float, ...]:
        """One evaluation of :meth:`dynamics` at ``(t, x)``.

        *x* and the delayed state *xd* (``x(t - rtt)``) are sequences of
        floats; for a whole trajectory call :meth:`simulate`, which binds
        once.
        """
        return self.dynamics()(t, x, xd)

    def simulate(
        self,
        duration: float,
        dt: float = 1e-3,
        x0: Optional[Sequence[float]] = None,
        method: str = "rk4",
    ) -> DdeSolution:
        """Integrate the DDE from *x0* (default :attr:`x0_default`).

        The grid ends at ``round(duration / dt) * dt`` — not at
        *duration* when the span is not a multiple of the step.
        """
        start = self.x0_default if x0 is None else x0
        return integrate_dde_floats(self.dynamics(), start, (0.0, duration),
                                    dt, method=method, lag=self.rtt)


# ----------------------------------------------------------------------
# the registered parameter sets
# ----------------------------------------------------------------------
@dataclass
class PertRed(FluidModel):
    """PERT emulating RED at the end host (eq. 14), Figure 13's defaults.

    ``p_max``, ``t_min``, ``t_max`` are the emulated curve in seconds of
    queuing delay; ``alpha`` and ``delta`` the srtt EWMA's history weight
    (paper: 0.99) and sampling interval.  ``beta_decrease`` 0.35 models
    PERT's actual early decrease (the paper analyses 0.5).
    """

    capacity: float = 100.0
    n_flows: int = 5
    rtt: float = 0.1
    p_max: float = 0.1
    t_min: float = 0.05
    t_max: float = 0.1
    alpha: float = 0.99
    delta: float = 1e-4
    beta_decrease: float = 0.5
    clamp: bool = False
    approximate_self_delay: bool = False
    n_of_t: Optional[Callable[[float], float]] = None

    @property
    def law(self) -> LinearRamp:
        return LinearRamp(self.p_max, self.t_min, self.t_max)

    @property
    def l_pert(self) -> float:
        """Slope L_PERT = p_max / (T_max - T_min)  (paper eq. 10)."""
        return self.law.slope


@dataclass
class TcpRed(FluidModel):
    """Router-based TCP/RED (Misra, Gong & Towsley 2000), Sec. 5.4's
    comparison point: the same curve over the queue in packets.

    ``delta`` is RED's sampling interval; ``None`` means once per packet,
    1/C.
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

    signal = "queue"

    def __post_init__(self) -> None:
        if self.delta is None and self.capacity > 0:
            self.delta = 1.0 / self.capacity
        super().__post_init__()

    @property
    def law(self) -> LinearRamp:
        return LinearRamp(self.p_max, self.min_th, self.max_th)


@dataclass
class PertPi(FluidModel):
    """PERT emulating a PI controller (paper Section 6).

    ``k`` and ``m`` are the PI gains (Theorem 2:
    :func:`repro.fluid.stability.pert_pi_gains`), ``tq_ref`` the
    queuing-delay target in seconds.
    """

    capacity: float = 100.0
    n_flows: int = 5
    rtt: float = 0.1
    k: float = 0.1
    m: float = 1.0
    tq_ref: float = 0.05
    clamp: bool = True

    x0_default = (1.0, 0.0, 0.0)

    @property
    def law(self) -> PiResponse:
        return PiResponse(self.k, self.m, target_delay=self.tq_ref)


#: model name -> parameter set
FLUID_MODELS: Dict[str, type] = {
    "tcp_red": TcpRed,
    "pert_red": PertRed,
    "pert_pi": PertPi,
}


def fluid_model_params(name: str) -> Dict[str, inspect.Parameter]:
    """Constructor keywords accepted by the named model."""
    cls = FLUID_MODELS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown fluid model {name!r}; valid: {sorted(FLUID_MODELS)}"
        )
    sig = inspect.signature(cls.__init__)
    return {n: p for n, p in sig.parameters.items() if n != "self"}


def make_fluid_model(name: str, **params: Any) -> FluidModel:
    """Build the fluid model registered under *name*.

    Unknown model names and keywords raise :class:`ValueError` listing
    the valid ones (mirroring :class:`repro.sim.queues.QueueConfig`), so
    a typo fails at construction rather than as a silently ignored knob;
    out-of-range values raise there too.
    """
    allowed = fluid_model_params(name)
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {unknown} for fluid model {name!r}; "
            f"valid: {sorted(allowed)}"
        )
    return FLUID_MODELS[name](**params)


# ----------------------------------------------------------------------
# batched integration across a parameter sweep
# ----------------------------------------------------------------------
def simulate_batch(
    models: Sequence[PertRed],
    duration: float,
    dt: float = 1e-3,
    x0=None,
    method: str = "rk4",
) -> DdeBatchSolution:
    """Integrate many ``pert_red`` models in lockstep.

    All members share the time grid but may differ in every numeric
    parameter, including the RTT (each member's own lag).  The
    right-hand side evaluates the same arithmetic as
    :meth:`FluidModel.dynamics` elementwise, so member *b*'s trajectory
    is bit-identical to ``models[b].simulate(duration, dt, ...)`` — this
    is a throughput optimisation for stability sweeps over parameter
    grids (the ``fluid.grid`` benchmark; Figure 13 itself runs
    ``simulate()`` per delay), not an approximation.

    Structural options must be uniform across the batch: ``clamp`` and
    ``approximate_self_delay`` flags must agree, and time-varying flow
    counts (``n_of_t``) are not supported (the closure would have to be
    evaluated per member anyway, forfeiting the vectorisation).

    *x0* is either one ``(3,)`` start shared by all members or a
    ``(B, 3)`` array; default ``(1, 1, 1)`` as in Figure 13.
    """
    if not models:
        raise ValueError("need at least one model")
    for i, m in enumerate(models):
        if type(m) is not PertRed:
            name = next((n for n, c in FLUID_MODELS.items() if type(m) is c),
                        type(m).__name__)
            raise ValueError(
                f"simulate_batch integrates pert_red models; member {i} is {name}"
            )
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

    # the scalar rhs's operations in its order, into ``out``: each ufunc's
    # third argument is its output (a keyword, or a global lookup of the
    # ufunc, costs more than the arithmetic on 16 elements)
    mul, sub, div = np.multiply, np.subtract, np.divide

    def rhs(t: float, x: tuple, xd: tuple, out: tuple) -> None:
        w, tq, s = x
        dw, dtq, ds = out
        w_d = w if approx else xd[0]
        p = sub(xd[2], t_min, ds)  # ds holds p until its own turn
        mul(l_arr, p, p)
        if clamp:  # the scalar clamps' comparisons, elementwise
            p = np.where(p > 0.0, np.where(p < 1.0, p, 1.0), 0.0)
            w = np.where(w < 0.0, 0.0, w)
        mul(beta, p, dw)
        mul(dw, w, dw)
        mul(dw, w_d, dw)
        div(dw, r, dw)
        sub(inv_r, dw, dw)
        mul(n_flows, w, dtq)
        div(dtq, r_cap, dtq)
        sub(dtq, 1.0, dtq)
        if clamp:
            np.copyto(dtq, 0.0, where=(tq <= 0.0) & (dtq < 0.0))
        sub(s, tq, ds)
        mul(k_arr, ds, ds)

    start = np.array(x0 if x0 is not None else (1.0, 1.0, 1.0), dtype=float)
    if start.ndim == 1:
        start = np.broadcast_to(start, (batch, start.size))
    elif start.shape[0] != batch:
        raise ValueError(f"x0 has {start.shape[0]} rows for {batch} models")
    return integrate_dde_batch(rhs, start, (0.0, duration), dt, method=method,
                               lag=r)
