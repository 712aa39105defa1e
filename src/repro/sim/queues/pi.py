"""Proportional-Integral (PI) AQM queue.

Implements the PI controller of Hollot, Misra, Towsley & Gong,
"On designing improved controllers for AQM routers supporting TCP flows"
(INFOCOM 2001) — the router-side baseline for the paper's Section 6
(PERT/PI).  The controller periodically recomputes the mark probability

    p(kT) = a * (q(kT) - q_ref) - b * (q((k-1)T) - q_ref) + p((k-1)T)

at sampling frequency ``1/T`` and applies it to every arrival, marking
ECN-capable packets and dropping the rest.  The recurrence itself is
:class:`repro.laws.PiResponse`, the law PERT/PI steps at the end host.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from ...laws import PiResponse
from ..engine import Simulator
from ..packet import Packet
from .base import SampledAqmQueue

__all__ = ["PiQueue"]


class PiQueue(SampledAqmQueue):
    """PI-controlled AQM queue.

    Parameters
    ----------
    capacity_pkts:
        Physical buffer size.
    q_ref:
        Target queue length in packets (the paper's PERT/PI experiment
        targets a 3 ms queuing delay; the router baseline uses the
        equivalent packet count).
    a, b:
        Controller gains of the discretised PI transfer function.  The
        ns-2 defaults (a=1.822e-5, b=1.816e-5 at 170 Hz, normalised per
        packet) are appropriate for ~1500-byte packets at ~15 Mbps; use
        :func:`repro.fluid.stability.pert_pi_gains` (discretised by
        :class:`repro.laws.PiResponse`) to derive gains for a given
        capacity / RTT / flow-count operating point.
    sample_hz:
        Controller update frequency (ns-2 default 170 Hz).
    sim:
        If given, the queue self-schedules its own periodic updates;
        otherwise callers must invoke :meth:`update` manually.
    """

    def __init__(
        self,
        capacity_pkts: int,
        q_ref: float = 50.0,
        a: float = 1.822e-5,
        b: float = 1.816e-5,
        sample_hz: float = 170.0,
        ecn: bool = True,
        sim: Optional[Simulator] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(capacity_pkts, PiResponse.from_gains(a, b, q_ref),
                         sample_hz, ecn, sim, rng or random.Random(0xA1))

    def admit(self, pkt: Packet, now: float) -> str:
        if self.is_full_for(pkt):
            return "drop"
        p = self.controller.p
        if p > 0.0 and self.rng.random() < p:  # no draw while p is 0
            return self._mark_or_drop(pkt)
        return "enqueue"

    def aqm_state(self) -> Dict[str, Any]:
        return {"p": self.controller.p, "q_ref": self.controller.target_delay}
