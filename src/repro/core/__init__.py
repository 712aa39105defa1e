"""PERT — Probabilistic Early Response TCP (the paper's contribution).

Public API: the one PERT sender under the name of each law it emulates
(:class:`PertSender` gentle RED, :class:`PertPiSender` PI,
:class:`PertRemSender` REM), their configuration dataclasses, the
smoothed-RTT congestion signals, and the laws themselves, re-exported
from :mod:`repro.laws`.
"""

from .config import PertConfig, PertPiConfig, PertRemConfig
from .pert import PertSender
from .pert_pi import PertPiSender
from .pert_rem import PertRemSender
from .response import GentleRedCurve, PiResponse, RedCurve, RemResponse
from .srtt import SRTT_WEIGHT_PERT, SRTT_WEIGHT_TCP, EwmaRtt, MovingAverageRtt

__all__ = [
    "PertConfig",
    "PertPiConfig",
    "PertRemConfig",
    "PertSender",
    "PertPiSender",
    "PertRemSender",
    "GentleRedCurve",
    "RedCurve",
    "PiResponse",
    "RemResponse",
    "EwmaRtt",
    "MovingAverageRtt",
    "SRTT_WEIGHT_PERT",
    "SRTT_WEIGHT_TCP",
]
