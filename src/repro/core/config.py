"""Configuration objects for PERT agents.

One dataclass per emulated law.  Each declares the law's own parameters
and builds the law object (:meth:`law`); what every PERT sender needs
whatever the law — the signal's smoothing, the early decrease, the
response spacing — is declared, and validated, once in
:class:`PertSenderConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..laws import GentleRedCurve, PiResponse, RedCurve

__all__ = ["PertSenderConfig", "PertConfig", "PertPiConfig"]


@dataclass
class PertSenderConfig:
    """Sender-side parameters shared by every emulated law.

    Attributes
    ----------
    srtt_weight:
        History weight of the smoothed-RTT signal (paper: 0.99).
    early_decrease:
        Multiplicative early-response decrease (paper: 35 %, i.e. the
        window becomes 0.65x), derived from the buffer-sizing rule
        B > f/(1-f) * BDP of eq. (1).
    min_response_interval_rtts:
        Early responses are spaced at least this many (smoothed) RTTs
        apart (paper: once per RTT).
    """

    srtt_weight: float = 0.99
    early_decrease: float = 0.35
    min_response_interval_rtts: float = 1.0

    def law(self):
        """Build the law object (:mod:`repro.laws`) this config describes."""
        raise NotImplementedError

    def validate(self) -> None:
        if not 0 <= self.srtt_weight < 1:
            raise ValueError("srtt_weight must be in [0, 1)")
        if not 0 < self.early_decrease < 1:
            raise ValueError("early_decrease must be in (0, 1)")
        if self.min_response_interval_rtts < 0:
            raise ValueError("min_response_interval_rtts must be >= 0")
        self.law()  # a law validates its own parameters


@dataclass
class PertConfig(PertSenderConfig):
    """Parameters of PERT emulating gentle RED (paper Section 3).

    Attributes
    ----------
    t_min, t_max:
        Queuing-delay thresholds in seconds.  The paper uses
        ``T_min = P + 5 ms`` and ``T_max = P + 10 ms``; expressed on the
        queuing-delay axis these are 5 ms and 10 ms.
    p_max:
        Response probability at ``t_max`` (paper: 0.05).
    gentle:
        Use the gentle-RED ramp to 1 at ``2*t_max`` (paper's choice).
    """

    t_min: float = 0.005
    t_max: float = 0.010
    p_max: float = 0.05
    gentle: bool = True

    def law(self) -> GentleRedCurve:
        curve_cls = GentleRedCurve if self.gentle else RedCurve
        return curve_cls(t_min=self.t_min, t_max=self.t_max, p_max=self.p_max)


@dataclass
class PertPiConfig(PertSenderConfig):
    """Parameters of PERT emulating a PI controller (paper Section 6).

    ``k`` and ``m`` are the PI gains of eq. (16)/(21); ``target_delay``
    is the queuing-delay set point (paper: 3 ms) and ``delta`` the
    nominal sampling interval of the bilinear transform.
    """

    k: float = 0.1
    m: float = 1.0
    target_delay: float = 0.003
    delta: float = 0.001

    def law(self) -> PiResponse:
        return PiResponse(k=self.k, m=self.m, target_delay=self.target_delay,
                          delta=self.delta)
