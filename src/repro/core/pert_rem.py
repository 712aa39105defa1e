"""PERT emulating REM at the end host.

A third instantiation of the paper's pluggable-response design (its
conclusion: "other AQM schemes can be potentially emulated at the
end-host"): :class:`~repro.core.pert.PertSender` with a
:class:`PertRemConfig` by default, so the response probability follows
REM's price law (:class:`repro.laws.RemResponse`).
"""

from .config import PertRemConfig
from .pert import PertSender

__all__ = ["PertRemSender"]


class PertRemSender(PertSender):
    """PERT sender whose response probability follows REM's price law."""

    config_cls = PertRemConfig
