"""The fluid model (paper Sections 5-6): one set of equations, any law.

N identical long-lived flows share a bottleneck of C packets/second
over a constant round-trip delay R.  The state vector is

    x1 = W(t)   the per-flow congestion window            [packets]
    x2 = q(t)   the congestion signal: the queuing delay [s] for a
                ``"delay"`` signal (the end host), the queue [packets]
                for a ``"queue"`` signal (the router)
    x3          the law's own state: the low-pass-filtered signal s for
                a curve, the probability p for a controller

and :func:`equations` writes each equation once:

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
is the derivative of the unclamped block: no law needs theory code.

The equations are source text, one block per *shape* (curve or
controller × ``clamp`` × ``approximate_self_delay`` × ``n_of_t``) with
the flags resolved when the block is made, split into the half that
reads only the delayed state and the half each RK4 stage runs.
:meth:`FluidModel.simulate` hands the block and its constants to the
scalar kernel, which steps the statements in place of an rhs call
(:func:`repro.fluid.dde.integrate_equations`): no rhs frame per stage,
and a curve's law evaluated once per delayed row.
:meth:`FluidModel.dynamics` compiles the same block into a float-contract
rhs for :func:`repro.fluid.integrate_dde_floats`, which the block path
equals bit for bit; :func:`simulate_batch` runs many models' own
blocks on one grid, into one buffer.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..laws import LinearRamp, PiResponse, check_positive, lpf_pole
from .dde import (
    DdeSolution,
    Equations,
    _check_problem,
    _grid,
    _integrate,
    equations_rhs,
    integrate_equations,
)

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
        ``probability(s)`` (and ``lo``, ``slope`` for :meth:`equilibrium`),
        or a controller with ``rate(q, dq)`` and ``target_delay``."""
        raise NotImplementedError

    def __post_init__(self) -> None:
        check_positive(capacity=self.capacity, n_flows=self.n_flows,
                       rtt=self.rtt)
        if not 0 < self.beta_decrease < 1:
            raise ValueError("beta_decrease must be in (0, 1)")
        # the law's constructor checks its own parameters
        if not self._controller(self.law):
            if not 0 < self.alpha < 1:
                raise ValueError("alpha must be in (0, 1)")
            check_positive(delta=self.delta)

    @staticmethod
    def _controller(law) -> bool:
        return hasattr(law, "rate")

    @property
    def k_lpf(self) -> float:
        """A curve's LPF pole K = ln(alpha) / delta < 0  (paper eq. 10)."""
        return lpf_pole(self.alpha, self.delta)

    # ------------------------------------------------------------------
    def equilibrium(self) -> Tuple[float, float, float]:
        """Stationary point (W*, p*, q*) generalising eq. (9).

        W* = RC/N; the window equation gives p* = 1/(β·W*²), which
        β = 0.5 makes 2N²/(RC)²; a curve settles at q* = lo + p*/L, a
        controller's integrator at its target.  At β = 0.5 (W*, p*) is
        :func:`repro.fluid.stability.equilibrium`, eq. (9)'s closed form,
        up to the rounding of the two expressions (W* exactly, p* within
        11 ulp); that one stays as the paper states it, and the
        ``fluid.grid`` benchmark imports it.
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
    def _bound_equations(self, linear: bool = False) -> Tuple[Equations, tuple]:
        """This model's :func:`equations` (*linear*: unclamped, N
        constant) and the constants they read.

        Called once per run (never inside the stepping loop), so a
        parameter changed between two calls is honoured.
        """
        law = self.law
        controller = self._controller(law)
        block = equations(controller, bool(self.clamp) and not linear,
                          bool(self.approximate_self_delay),
                          self.n_of_t is not None and not linear)
        # (a, b) of the queue equation q' = N·W/a - b
        a, b = ((self.rtt * self.capacity, 1.0) if self.signal == "delay"
                else (self.rtt, self.capacity))
        values = dict(inv_r=1.0 / self.rtt, r=self.rtt,
                      beta=self.beta_decrease, a=a, b=b,
                      n_flows=self.n_flows, n_of_t=self.n_of_t)
        if controller:
            values["rate"] = law.rate
        else:
            values.update(probability=law.probability, k_lpf=self.k_lpf)
        return block, tuple(values[name] for name in block.params)

    def dynamics(self) -> Callable:
        """Bind this model's constants; return its float-contract rhs:
        :func:`equations` compiled into ``rhs(t, x, xd)``."""
        block, constants = self._bound_equations()
        return equations_rhs(block)(*constants)

    def linearization(self) -> Tuple[np.ndarray, np.ndarray]:
        """Jacobians ``(A, B)`` of :meth:`dynamics` (unclamped, N
        constant) at :meth:`equilibrium`: ``x' ≈ A x(t) + B x(t - R)``.

        A complex step: column j is the imaginary part of the rhs with
        component j of ``x`` (A) or ``xd`` (B) shifted by h·1j, over h.
        The statements and a law's ``probability`` or ``rate`` are
        + − × ÷, so this is exact to rounding; h = 2⁻⁶⁷ scales exactly.
        """
        block, constants = self._bound_equations(linear=True)
        rhs = equations_rhs(block)(*constants)
        x = self.equilibrium_state()

        def column(j: int, delayed: bool):
            shifted = [v + 2.0**-67 * 1j if i == j else v
                       for i, v in enumerate(x)]
            f = rhs(0.0, x, shifted) if delayed else rhs(0.0, shifted, x)
            return [d.imag / 2.0**-67 for d in f]

        return tuple(np.array([column(j, delayed) for j in range(len(x))]).T
                     for delayed in (False, True))

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
        block, constants = self._bound_equations()
        return integrate_equations(block, constants, start, (0.0, duration),
                                   dt, method=method, lag=self.rtt)


# ----------------------------------------------------------------------
# the equations, one block per shape
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def equations(controller: bool, clamp: bool, approximate_self_delay: bool,
              n_of_t: bool) -> Equations:
    """The model's equations for one shape, its flags resolved.

    The statements every :class:`FluidModel` runs, written once: the
    kernel steps them in place (:meth:`FluidModel.simulate`) and
    :meth:`FluidModel.dynamics` compiles them into its rhs.  A curve's
    ``p = law.probability(s(t - R))``, its clamp and ``β·p`` read only
    the delayed state, so they are the block's delayed half, evaluated
    once per delayed row; ``β·p·W·W(t-R)/R`` evaluates left to right,
    so sharing ``β·p`` is exact.  A controller's ``p`` is its own state
    and runs per stage.  Under ``approximate_self_delay`` W(t-R) is the
    stage's W, taken before the clamp floors it.
    """
    delayed, stage = [], []
    if approximate_self_delay:
        stage.append("w_d = w")
    else:
        delayed.append("w_d = xd[0]")
    p_half = stage if controller else delayed
    p_half.append("p = z" if controller else "p = probability(xd[2])")
    if clamp:
        # min(1.0, max(0.0, p)) and max(w, 0.0) as the comparisons the
        # builtins make (a NaN p clamps to 0.0)
        p_half.append("p = (p if p < 1.0 else 1.0) if p > 0.0 else 0.0")
        stage.append("if w < 0.0:\n    w = 0.0")
    p_half.append("bp = beta * p")
    stage.append("dw = inv_r - bp * w * w_d / r")
    stage.append(f"dq = {'n_of_t(t)' if n_of_t else 'n_flows'} * w / a - b")
    if clamp:
        stage.append("if q <= 0.0 and dq < 0.0:\n    dq = 0.0")
    if controller:
        stage.append("dz = rate(q, dq)")
        if clamp:
            stage.append("if (z >= 1.0 and dz > 0.0) or (z <= 0.0 and dz < 0.0):"
                         "\n    dz = 0.0")
    else:
        stage.append("dz = k_lpf * (z - q)")
    params = ("inv_r", "r", "beta", "a", "b",
              "n_of_t" if n_of_t else "n_flows")
    params += ("rate",) if controller else ("probability", "k_lpf")
    flags = [name for name, on in (("clamp", clamp), ("approximate_self_delay",
             approximate_self_delay), ("n_of_t", n_of_t)) if on]
    return Equations(" ".join(["controller" if controller else "curve"] + flags),
                     params, ("w", "q", "z"), ("dw", "dq", "dz"),
                     "\n".join(delayed), "\n".join(stage))


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
# many models on one grid
# ----------------------------------------------------------------------
def simulate_batch(
    models: Sequence[FluidModel],
    duration: float,
    dt: float = 1e-3,
    x0=None,
    method: str = "rk4",
) -> DdeSolution:
    """:meth:`FluidModel.simulate` of every model in *models*, on one grid.

    Each member steps its own equations with its own lag (any registered
    shape; the state dimensions must agree), its rows written straight
    into its slice of one ``(B, len(t), dim)`` buffer: member *b* is
    ``models[b].simulate(duration, dt, ...)`` bit for bit, and nothing
    is copied.  ``y`` is the buffer's ``(len(t), B, dim)`` view.

    *x0* is one start shared by all members or a ``(B, dim)`` array;
    by default each member starts at its own :attr:`~FluidModel.x0_default`.
    """
    if not models:
        raise ValueError("need at least one model")
    bound = [m._bound_equations() for m in models]
    dim = len(bound[0][0].state)
    for b, (block, _) in enumerate(bound):
        if len(block.state) != dim:
            raise ValueError(f"member {b} ({block.name}) has "
                             f"{len(block.state)} state components; "
                             f"member 0 has {dim}")
    if x0 is None:
        starts = [m.x0_default for m in models]
    else:
        starts = np.asarray(x0, dtype=float)
        if starts.ndim == 1:
            starts = np.broadcast_to(starts, (len(models), len(starts)))
    if np.shape(starts) != (len(models), dim):
        raise ValueError(f"x0 has shape {np.shape(starts)}; {len(models)} "
                         f"models of {dim} components need ({dim},) or "
                         f"({len(models)}, {dim})")
    t0, n_steps, _ = _check_problem((0.0, duration), dt, method, None)
    ts = _grid(t0, dt, n_steps)
    ys = np.empty((len(models), len(ts), dim))
    for m, (block, constants), start, y in zip(models, bound, starts, ys):
        _integrate(block, constants, start, (0.0, duration), dt, method,
                   m.rtt, out=DdeSolution(ts, y))
    return DdeSolution(ts, ys.transpose(1, 0, 2))
