"""PERT/PI: emulating a PI-controller AQM at the end host (Section 6).

:class:`~repro.core.pert.PertSender` with a :class:`PertPiConfig` by
default: the response probability is the output of the discretised PI
controller of eq. 19 (:class:`repro.laws.PiResponse`) stepped on every
ACK, i.e. the sampling interval is the inter-ACK time, mirroring the
paper's analysis (δ ≈ N/C).
"""

from .config import PertPiConfig
from .pert import PertSender

__all__ = ["PertPiSender"]


class PertPiSender(PertSender):
    """PERT sender whose response probability is a PI controller output."""

    config_cls = PertPiConfig
