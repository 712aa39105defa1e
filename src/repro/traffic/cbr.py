"""Constant-bit-rate (non-responsive) traffic.

Used for the dynamic-behaviour experiments where sudden changes in
available bandwidth are caused by unresponsive (UDP-like) traffic
entering and leaving the bottleneck (paper Section 4.7).
"""

from __future__ import annotations

from typing import Optional

from ..laws import check_positive
from ..sim.engine import Event, Simulator
from ..sim.node import Node
from ..sim.packet import Packet, check_positive_int

__all__ = ["CbrSource", "CbrSink"]


class CbrSource:
    """Sends fixed-size packets at a constant rate; ignores congestion."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        dst: int,
        flow_id: int,
        rate_bps: float,
        pkt_size: int = 1000,
    ):
        check_positive(rate_bps=rate_bps)
        check_positive_int("pkt_size", pkt_size)
        self.sim = sim
        self.node = node
        self.dst = dst
        self.flow_id = flow_id
        self.rate_bps = rate_bps
        self.pkt_size = pkt_size
        self.interval = pkt_size * 8.0 / rate_bps
        self.pkts_sent = 0
        self._seq = 0
        self._timer: Optional[Event] = None
        self.running = False

    def start(self, at: float = 0.0) -> None:
        self.running = True
        self._timer = self.sim.schedule(max(0.0, at - self.sim.now), self._tick)

    def stop(self) -> None:
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self.running:
            return
        pkt = Packet(
            flow_id=self.flow_id,
            src=self.node.node_id,
            dst=self.dst,
            size=self.pkt_size,
            seq=self._seq,
        )
        self._seq += 1
        self.pkts_sent += 1
        self.node.send(pkt)
        self._timer = self.sim.schedule(self.interval, self._tick)

    def receive(self, pkt: Packet) -> None:  # pragma: no cover - sources ignore input
        pass


class CbrSink:
    """Counts the CBR bytes arriving at the destination."""

    def __init__(self, node: Node, flow_id: int):
        self.bytes_received = 0
        node.register_endpoint(flow_id, self)

    def receive(self, pkt: Packet) -> None:
        self.bytes_received += pkt.size
