"""Unidirectional store-and-forward link.

Each link owns a queue discipline and a transmitter.  Arriving packets are
offered to the queue; the transmitter drains it one packet at a time,
charging the serialization delay ``size * 8 / bandwidth`` and then the
propagation delay before handing the packet to the downstream node.  A
duplex connection between two nodes is simply two :class:`Link` objects,
which is how the paper's topologies carry reverse-path ACK traffic through
their own (droppable) queues.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Optional

from .engine import Simulator
from .packet import Packet
from .queues.base import QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["Link"]


class Link:
    """One-way link: ``src -> dst`` with a queue at the sending side.

    Parameters
    ----------
    bandwidth:
        Line rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    qdisc:
        Queue discipline instance guarding the transmitter.
    """

    __slots__ = (
        "sim",
        "src",
        "dst",
        "bandwidth",
        "delay",
        "qdisc",
        "_busy",
        "bytes_transmitted",
        "packets_transmitted",
        "busy_time",
        "_ser_time",
        "obs",
        "_deliver",
        "_on_tx_done",
    )

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        bandwidth: float,
        delay: float,
        qdisc: QueueDiscipline,
    ) -> None:
        # comparisons that ``nan`` fails, so a bad value is refused here,
        # by name, and not at the first packet by the engine
        if not 0.0 < bandwidth < math.inf:
            raise ValueError(
                f"bandwidth must be a positive finite number of bits per "
                f"second, got {bandwidth!r}")
        if not 0.0 <= delay < math.inf:
            raise ValueError(
                f"delay must be a non-negative finite number of seconds, "
                f"got {delay!r}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.delay = delay
        self.qdisc = qdisc
        self._busy = False
        self.bytes_transmitted = 0
        self.packets_transmitted = 0
        self.busy_time = 0.0
        #: serialization-time memo, size -> seconds.  Real traffic uses a
        #: handful of distinct packet sizes, so this collapses the per-hop
        #: float division to a dict hit.  Entries are computed with the
        #: exact expression ``size * 8.0 / bandwidth`` so cached and
        #: uncached runs are bit-identical.
        self._ser_time: Dict[int, float] = {}
        #: this link's instrument (``Collector.attach_link``)
        self.obs: Optional[Any] = None
        # The two per-packet event callbacks, bound once per link:
        # ``dst.receive`` and ``self._tx_done`` go into the event list
        # once per hop, and looking them up here allocates two bound
        # methods per link, not two per packet.  Both resolve through the
        # class at this point, so a subclass's ``_tx_done`` and a
        # class-level wrapper installed before the link is built
        # (``benchmarks/e2e/tracing.py``) are what gets bound.
        self._deliver = dst.receive
        self._on_tx_done = self._tx_done

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> None:
        """Offer *pkt* to this link's queue and kick the transmitter.

        Four sends in five find the link idle, so the transmitter start
        (the body of :meth:`_start_next`, for a queue known to be
        non-empty) is written out here instead of costing a frame a hop.

        An idle link has an empty buffer (it goes idle only on a departure
        that finds the buffer empty), onto which a plain tail-drop FIFO of
        capacity >= 1 admits anything.  So with such a queue and no
        instrument attached the packet goes straight to the transmitter,
        the queue's counters moved exactly as ``enqueue`` + ``dequeue``
        would move them.  AQMs (their ``admit`` is the law), instrumented
        queues and queues whose class is wrapped (``_plain_admit`` false)
        take the full path on every arrival.
        """
        sim = self.sim
        qdisc = self.qdisc
        if self._busy:
            qdisc.enqueue(pkt, sim.now)
            return
        if qdisc._plain_admit and qdisc.obs is None:
            stats = qdisc.stats
            size = pkt.size
            stats.arrivals += 1
            stats.enqueues += 1
            stats.bytes_in += size
            stats.departures += 1
            stats.bytes_out += size
        else:
            now = sim.now
            if not qdisc.enqueue(pkt, now):
                return
            pkt = qdisc.dequeue(now)  # the buffer was empty: *pkt* again
            size = pkt.size
        self._busy = True
        tx_time = self._ser_time.get(size)
        if tx_time is None:
            tx_time = size * 8.0 / self.bandwidth
            self._ser_time[size] = tx_time
        self.busy_time += tx_time
        sim.schedule_fire1(tx_time, self._on_tx_done, pkt)

    def _start_next(self) -> None:
        """Start transmitting the head-of-line packet, or go idle.

        The general form of what :meth:`send` and :meth:`_tx_done` write
        out for themselves; a subclass that overrides ``_tx_done``
        (:class:`~repro.sim.jitter.JitterLink`) ends with this.  An empty
        buffer is not asked for a packet: ``dequeue`` would return
        ``None`` and change nothing (its contract).
        """
        qdisc = self.qdisc
        if not qdisc._buf:
            self._busy = False
            return
        sim = self.sim
        pkt = qdisc.dequeue(sim.now)
        self._busy = True
        size = pkt.size
        tx_time = self._ser_time.get(size)
        if tx_time is None:
            tx_time = size * 8.0 / self.bandwidth
            self._ser_time[size] = tx_time
        self.busy_time += tx_time
        sim.schedule_fire1(tx_time, self._on_tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        """Complete *pkt*'s transmission and start the next one.

        One departure: counters, the propagation-delay hand-off to the
        destination, and the dequeue of the next packet, whose own
        departure is scheduled like any event.  Most departures leave the
        buffer empty; those go idle without a ``dequeue`` call, which
        would return ``None`` and change nothing.  A back-to-back departure
        with nothing due before it is the next event to fire, so the
        engine keeps it in its next-event slot and it never touches the
        heap.
        """
        sim = self.sim
        self.bytes_transmitted += pkt.size
        self.packets_transmitted += 1
        if self.obs is not None:
            self.obs.link_tx(self, sim.now)
        sim.schedule_fire1(self.delay, self._deliver, pkt)
        qdisc = self.qdisc
        if not qdisc._buf:
            self._busy = False
            return
        pkt = qdisc.dequeue(sim.now)
        size = pkt.size
        tx_time = self._ser_time.get(size)
        if tx_time is None:
            tx_time = size * 8.0 / self.bandwidth
            self._ser_time[size] = tx_time
        self.busy_time += tx_time
        sim.schedule_fire1(tx_time, self._on_tx_done, pkt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.src.node_id}->{self.dst.node_id} "
            f"{self.bandwidth/1e6:.1f}Mbps {self.delay*1e3:.1f}ms "
            f"q={len(self.qdisc)}>"
        )
