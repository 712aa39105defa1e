"""The control laws: congestion signal in, mark / early-response probability out.

The paper's thesis is that one law works at the router *or* at the end
host; only the signal it is fed differs.  Every law therefore lives
here, once, and is unit-agnostic — the signal is a float:

=================  ===========================  ==========================
place              signal                       adapter
=================  ===========================  ==========================
router             queue length [packets]       :mod:`repro.sim.queues`
end host           ``srtt_0.99 − P`` [seconds]  :mod:`repro.core`
fluid model        the DDE's q(t) [s or pkts]   :mod:`repro.fluid.model`
=================  ===========================  ==========================

A law is one of two shapes, and an adapter tells them apart by the slot
it keeps the object in:

* a **curve** is stateless: ``probability(signal) -> p``.
  :class:`GentleRedCurve`, :class:`RedCurve`, and the fluid analysis's
  :class:`LinearRamp`.
* a **controller** carries state from sample to sample:
  ``update(signal) -> p`` advances it by one sample, and
  ``rate(signal, dsignal) -> dp/dt`` states its continuous form for the
  fluid model.  :class:`PiResponse`.

The fluid model's stability analysis differentiates ``probability`` or
``rate`` by a complex step, exact for + − × ÷ code such as
:class:`LinearRamp`'s and :meth:`PiResponse.rate`: no law states a derivative.

What an adapter adds is what is genuinely its own: how the signal is
measured and how often it is sampled, the coin-flip rule, and what a
positive outcome does (CE mark / drop / ``cwnd *= 0.65``).

This module imports nothing from ``repro``: ``sim.queues`` sits below
``core`` in the import graph and both need it.
"""

from __future__ import annotations

import math

__all__ = [
    "LinearRamp",
    "GentleRedCurve",
    "RedCurve",
    "PiResponse",
    "ramp_slope",
    "lpf_pole",
]


def check_positive(**values: float) -> None:
    """Reject, by name, any of *values* that is not a positive finite
    number (``x <= 0`` alone lets NaN and infinity through)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def ramp_slope(p_max: float, lo: float, hi: float) -> float:
    """Slope L of a RED ramp, p_max / (hi − lo)  (paper eq. 10)."""
    return p_max / (hi - lo)


def lpf_pole(alpha: float, delta: float) -> float:
    """Continuous-time pole K = ln(alpha) / delta < 0 of an EWMA with
    history weight *alpha* sampled every *delta*  (paper eq. 10)."""
    return math.log(alpha) / delta


class LinearRamp:
    """RED's first segment without its bounds: ``slope * (signal - lo)``.

    The curve of the fluid analysis (paper eq. 14): the ramp through
    ``(lo, 0)`` and ``(hi, p_max)``, continued over the whole signal
    axis so the model stays linear around its equilibrium.  Limiting
    ``p`` to [0, 1] is the fluid model's ``clamp``, not the law's.
    """

    def __init__(self, p_max: float, lo: float, hi: float):
        if not 0 <= lo < hi:
            raise ValueError("need 0 <= lo < hi")
        if not 0 < p_max <= 1:
            raise ValueError("p_max must be in (0, 1]")
        self.lo = lo
        #: L of eq. (10): L_PERT per second, L_RED per packet
        self.slope = ramp_slope(p_max, lo, hi)

    def probability(self, signal: float) -> float:
        """The ramp's value at *signal* (negative below ``lo``)."""
        return self.slope * (signal - self.lo)


class GentleRedCurve:
    """Gentle RED (paper Section 3, Figure 5) over any signal.

    * at or below ``t_min``: probability 0,
    * ``t_min``..``t_max``: linear ramp from 0 to ``p_max``,
    * ``t_max``..``2*t_max``: linear ramp from ``p_max`` to 1,
    * beyond ``2*t_max``: probability 1.

    The thresholds are in the signal's unit.  The defaults are the
    paper's end-host choice ``(T_min, T_max, p_max) = (P + 5 ms,
    P + 10 ms, 0.05)`` on the queuing-delay axis; a RED router passes
    ``min_th``, ``max_th`` in packets and ``max_p``.
    """

    gentle = True

    def __init__(self, t_min: float = 0.005, t_max: float = 0.010, p_max: float = 0.05):
        if not 0 <= t_min < t_max:
            raise ValueError("need 0 <= t_min < t_max")
        if not 0 < p_max <= 1:
            raise ValueError("p_max must be in (0, 1]")
        self.t_min = t_min
        self.t_max = t_max
        self.p_max = p_max

    def probability(self, signal: float) -> float:
        """Mark / early-response probability for the given signal value."""
        if signal <= self.t_min:
            return 0.0
        if signal < self.t_max:
            return self.p_max * (signal - self.t_min) / (self.t_max - self.t_min)
        if self.gentle and signal < 2.0 * self.t_max:
            return self.p_max + (1.0 - self.p_max) * (signal - self.t_max) / self.t_max
        return 1.0

    __call__ = probability


class RedCurve(GentleRedCurve):
    """Original RED: the probability jumps to 1 at ``t_max``."""

    gentle = False


class PiResponse:
    """Discretised PI controller (paper eq. 19; Hollot et al. at the router).

    The continuous controller ``C(s) = K (1 + s/m) / s`` is discretised
    with the bilinear transform at sampling interval ``delta``, giving

        p(k) = gamma * e(k) - beta * e(k-1) + p(k-1),   e = signal - target

    with ``gamma = K/m + K*delta/2`` and ``beta = K/m - K*delta/2``.
    The probability is clamped to [0, 1].  :meth:`rate` is the
    continuous form the fluid model integrates.

    Parameters
    ----------
    k, m:
        Controller gains (see :func:`repro.fluid.stability.pert_pi_gains`
        for the Theorem 2 schedule).
    target_delay:
        Set point in the signal's unit (the paper's end-host experiment
        uses a queuing delay of 3 ms).
    delta:
        Nominal sampling interval used in the bilinear transform.
    """

    def __init__(self, k: float, m: float, target_delay: float = 0.003,
                 delta: float = 0.001):
        check_positive(k=k, m=m, delta=delta)
        self.k = k
        self.m = m
        self._configure(k / m + k * delta / 2.0, k / m - k * delta / 2.0,
                        target_delay)

    @classmethod
    def from_gains(cls, gamma: float, beta: float, target: float) -> "PiResponse":
        """The same recurrence with its two gains given directly (a PI
        router's ``a``, ``b`` and ``q_ref``).

        The sample before the first is taken to be 0 — an empty queue —
        where the constructor starts on target (previous error 0).
        """
        law = cls.__new__(cls)
        law._configure(gamma, beta, target)
        law._prev_err = 0.0 - target
        return law

    def _configure(self, gamma: float, beta: float, target: float) -> None:
        if not 0 <= target < math.inf:
            raise ValueError("target_delay / q_ref must be non-negative and "
                             f"finite, got {target!r}")
        self.gamma = gamma
        self.beta = beta
        self.target_delay = target
        self.reset()

    def update(self, signal: float) -> float:
        """One controller step; returns the new probability."""
        err = signal - self.target_delay
        # this operand order is pinned bit-for-bit (tests/test_laws.py)
        p = self.gamma * err - self.beta * self._prev_err + self.p
        self.p = min(1.0, max(0.0, p))
        self._prev_err = err
        return self.p

    def rate(self, signal: float, dsignal: float) -> float:
        """dp/dt of the continuous controller, ``k (ds/dt + (s - target)/m)``
        (paper eq. 16/17); needs the gains :meth:`from_gains` does not keep."""
        return self.k * (dsignal + (signal - self.target_delay) / self.m)

    def reset(self) -> None:
        self.p = 0.0
        self._prev_err = 0.0

