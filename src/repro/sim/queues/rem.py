"""Random Exponential Marking (REM) queue.

Implements REM (Athuraliya, Low, Li & Yin, IEEE Network 2001) — cited by
the paper as one of the binary-feedback AQM schemes ([2]).  REM keeps a
*price* per link that integrates the mismatch between demand and
capacity, and marks with probability

    p = 1 - phi^(-price)

so that end-to-end marking probability composes multiplicatively over a
path.  The price update each period T is

    price <- max(0, price + gamma * (alpha * (q - q_ref) + q - q_prev))

(the ``q - q_prev`` term approximates rate mismatch by queue growth).

Included both as an additional router baseline and as the router side
of the end-host REM emulation: the price law is
:class:`repro.laws.RemResponse`, the same object PERT/REM steps per ACK,
demonstrating the paper's claim that PERT generalises to other AQMs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from ...laws import RemResponse
from ..engine import Simulator
from ..packet import Packet
from .base import SampledAqmQueue

__all__ = ["RemQueue"]


class RemQueue(SampledAqmQueue):
    """REM AQM queue.

    Parameters
    ----------
    q_ref:
        Target queue length in packets (REM's ``b*``).
    gamma:
        Price adaptation gain (REM default 0.001).
    alpha:
        Weight of the queue-offset term (REM default 0.1).
    phi:
        Exponential base (> 1; REM default 1.001).
    sample_hz:
        Price update frequency.
    """

    def __init__(
        self,
        capacity_pkts: int,
        q_ref: float = 20.0,
        gamma: float = 0.001,
        alpha: float = 0.1,
        phi: float = 1.001,
        sample_hz: float = 170.0,
        ecn: bool = True,
        sim: Optional[Simulator] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(capacity_pkts, RemResponse(gamma, alpha, phi, q_ref),
                         sample_hz, ecn, sim, rng or random.Random(0x4E4))

    def mark_probability(self) -> float:
        """The law's probability at the current price."""
        return self.controller.probability()

    def admit(self, pkt: Packet, now: float) -> str:
        if self.is_full_for(pkt):
            return "drop"
        if self.rng.random() < self.controller.probability():  # always draws
            return self._mark_or_drop(pkt)
        return "enqueue"

    def aqm_state(self) -> Dict[str, Any]:
        return {"price": self.controller.price, "p": self.mark_probability()}
