"""PERT — Probabilistic Early Response TCP (the paper's contribution).

Public API: the one PERT sender under the name of each law it emulates
(:class:`PertSender` gentle RED, :class:`PertPiSender` PI), their configuration dataclasses, the
smoothed-RTT congestion signals, and the laws themselves, re-exported
from :mod:`repro.laws`.
"""

from .config import PertConfig, PertPiConfig
from .pert import PertSender
from .pert_pi import PertPiSender
from .response import GentleRedCurve, PiResponse, RedCurve
from .srtt import SRTT_WEIGHT_PERT, SRTT_WEIGHT_TCP, EwmaRtt, MovingAverageRtt

__all__ = [
    "PertConfig",
    "PertPiConfig",
    "PertSender",
    "PertPiSender",
    "GentleRedCurve",
    "RedCurve",
    "PiResponse",
    "EwmaRtt",
    "MovingAverageRtt",
    "SRTT_WEIGHT_PERT",
    "SRTT_WEIGHT_TCP",
]
