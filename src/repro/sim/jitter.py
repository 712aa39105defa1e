"""Jitter link: random per-packet extra delay (causes reordering).

Real paths reorder packets; delay-based end-host schemes must neither
collapse (spurious fast retransmits) nor misread jitter as congestion.
:class:`JitterLink` extends the store-and-forward link with a uniformly
distributed extra propagation delay per packet, so packets can overtake
each other in flight — the standard way to inject reordering without
modelling parallel paths explicitly.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .engine import Simulator
from .link import Link
from .packet import Packet
from .queues.base import QueueDiscipline

__all__ = ["JitterLink"]


class JitterLink(Link):
    """Link whose propagation delay is ``delay + U(0, jitter)`` per packet.

    Because each packet draws its own extra delay, a later packet can
    arrive before an earlier one (reordering), unlike the FIFO base link.
    """

    __slots__ = ("jitter", "rng", "reorder_opportunities", "_last_arrival")

    def __init__(
        self,
        sim: Simulator,
        src,
        dst,
        bandwidth: float,
        delay: float,
        qdisc: QueueDiscipline,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(sim, src, dst, bandwidth, delay, qdisc)
        if not 0.0 <= jitter < math.inf:
            raise ValueError(
                f"jitter must be a non-negative finite number of seconds, "
                f"got {jitter!r}")
        self.jitter = jitter
        self.rng = rng or sim.stream("jitter", unique=True)
        self.reorder_opportunities = 0
        self._last_arrival = 0.0

    def _tx_done(self, pkt: Packet) -> None:
        self._tx = None
        if self.obs is not None:
            self.obs.link_tx(self, self.sim.now)
        extra = self.rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0
        arrival = self.sim.now + self.delay + extra
        if arrival < self._last_arrival:
            self.reorder_opportunities += 1
        self._last_arrival = max(self._last_arrival, arrival)
        self.sim.schedule_at(arrival, self.dst.receive, pkt)
        self._start_next()
