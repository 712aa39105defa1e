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

    #: slots derived from the others at construction and on restore —
    #: never part of a snapshot (see :meth:`_bind_callbacks`)
    _DERIVED_SLOTS = frozenset(("_deliver", "_on_tx_done"))

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        bandwidth: float,
        delay: float,
        qdisc: QueueDiscipline,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if delay < 0:
            raise ValueError("delay must be non-negative")
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
        self._bind_callbacks()

    def _bind_callbacks(self) -> None:
        """Bind the two per-packet event callbacks once per link.

        ``dst.receive`` and ``self._tx_done`` go into the event list once
        per hop; looking them up here instead allocates two bound methods
        per link, not two per packet.  Both resolve through the class at
        this point, so a subclass's ``_tx_done`` and a class-level wrapper
        installed before the link is built (``benchmarks/e2e/tracing.py``)
        are what gets bound.
        """
        self._deliver = self.dst.receive
        self._on_tx_done = self._tx_done

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> None:
        """Offer *pkt* to this link's queue and kick the transmitter.

        Four sends in five find the link idle, so the transmitter start
        (the body of :meth:`_start_next`, for a queue known to be
        non-empty) is written out here instead of costing a frame a hop.
        """
        sim = self.sim
        now = sim.now
        qdisc = self.qdisc
        if qdisc.enqueue(pkt, now) and not self._busy:
            pkt = qdisc.dequeue(now)
            if pkt is None:
                return
            self._busy = True
            size = pkt.size
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
        (:class:`~repro.sim.jitter.JitterLink`) ends with this.
        """
        sim = self.sim
        pkt = self.qdisc.dequeue(sim.now)
        if pkt is None:
            self._busy = False
            return
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
        departure is scheduled like any event.  A back-to-back departure
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
        pkt = self.qdisc.dequeue(sim.now)
        if pkt is None:
            self._busy = False
            return
        size = pkt.size
        tx_time = self._ser_time.get(size)
        if tx_time is None:
            tx_time = size * 8.0 / self.bandwidth
            self._ser_time[size] = tx_time
        self.busy_time += tx_time
        sim.schedule_fire1(tx_time, self._on_tx_done, pkt)

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Walk ``__slots__`` across the MRO so subclasses (e.g.
        :class:`~repro.sim.jitter.JitterLink`) round-trip their extra
        slots without defining their own hooks.  Everything a link holds
        — counters, qdisc, the serialization memo, an attached instrument
        — is state worth keeping; nothing is process-local.  The bound
        callbacks are derived, not state: they stay out of the snapshot
        (its bytes do not change with them) and are re-bound on restore
        to the *restored* node and link."""
        state: Dict[str, Any] = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot not in self._DERIVED_SLOTS:
                    state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        # ``receive`` is a class attribute, so binding it works even when
        # a reference cycle hands us ``dst`` before its own state is set
        self._bind_callbacks()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.src.node_id}->{self.dst.node_id} "
            f"{self.bandwidth/1e6:.1f}Mbps {self.delay*1e3:.1f}ms "
            f"q={len(self.qdisc)}>"
        )
