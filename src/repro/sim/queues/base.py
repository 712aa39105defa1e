"""Queue-discipline interface and shared bookkeeping.

A :class:`QueueDiscipline` sits at the head of each unidirectional link and
decides, per arriving packet, whether to enqueue, mark (ECN), or drop.  All
disciplines keep uniform counters so the experiment harness can compute
drop and mark rates without knowing which AQM is in use (time-averaged
queue lengths come from :class:`repro.sim.monitors.QueueSampler`).

Queue capacity is expressed in *packets*, matching the paper (e.g. the
750-packet queues of Section 2.2) and ns-2's default byte-agnostic queues.
"""

from __future__ import annotations

import numbers
import random
from collections import deque
from typing import Any, Deque, Dict, Optional

from ..engine import Simulator
from ..packet import Packet

__all__ = ["QueueDiscipline", "QueueStats", "SampledAqmQueue",
           "check_capacity"]


def check_capacity(capacity_pkts: Any) -> None:
    """Reject a buffer size that is not a whole, positive packet count."""
    if (isinstance(capacity_pkts, bool)
            or not isinstance(capacity_pkts, numbers.Integral)
            or capacity_pkts < 1):
        raise ValueError(
            f"capacity_pkts must be a positive integer, got {capacity_pkts!r}")


class QueueStats:
    """Counters shared by every queue discipline."""

    __slots__ = (
        "arrivals",
        "enqueues",
        "drops",
        "forced_drops",
        "early_drops",
        "marks",
        "departures",
        "bytes_in",
        "bytes_out",
    )

    def __init__(self) -> None:
        self.arrivals = 0
        self.enqueues = 0
        self.drops = 0
        self.forced_drops = 0  # buffer-overflow drops
        self.early_drops = 0  # AQM probabilistic drops
        self.marks = 0  # ECN CE marks
        self.departures = 0
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of arriving packets dropped."""
        return self.drops / self.arrivals if self.arrivals else 0.0


class QueueDiscipline:
    """Base class: a FIFO buffer plus an admission policy.

    Subclasses override :meth:`admit` to implement AQM.  ``admit`` returns
    one of ``"enqueue"``, ``"mark"`` (enqueue with CE set) or ``"drop"``.
    """

    # No __slots__ here: queues are per-link (a handful per simulation),
    # so the memory/lookup win is negligible.  To watch a queue's traffic,
    # wrap ``enqueue``/``dequeue`` on the class before the queue is built:
    # such a wrapper sees every call.  An override assigned on an
    # *instance* must also set ``_plain_admit = False``, or the link's
    # idle-hop pass-through goes round it.

    #: AQM subclasses set this per instance: CE-mark the ECN-capable
    #: packets the law picks instead of dropping them
    ecn = False

    def __init__(self, capacity_pkts: int) -> None:
        check_capacity(capacity_pkts)
        # Plain tail-drop FIFO: ``admit``, ``enqueue`` and ``dequeue`` are
        # this class's own, as defined (no subclass override, no wrapper
        # installed on the class).  Then enqueue() inlines the admission
        # decision and ``Link.send`` hands a packet arriving at an idle
        # link straight to the transmitter.
        cls = type(self)
        self._plain_admit = (cls.admit, cls.enqueue, cls.dequeue) == _PLAIN_OPS
        self.capacity = capacity_pkts
        self._buf: Deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()
        #: this queue's instrument, set by ``Collector.attach_queue`` —
        #: the one way a queue is observed (drops included); while
        #: ``None`` — the default — the hooks below cost one attribute
        #: test per packet and nothing else
        self.obs: Optional[Any] = None

    # -- admission policy -------------------------------------------------
    def is_full_for(self, pkt: Packet) -> bool:
        """True if admitting *pkt* would exceed the packet bound."""
        return len(self._buf) >= self.capacity

    def admit(self, pkt: Packet, now: float) -> str:
        """Decide the fate of an arriving packet (default: tail drop)."""
        if self.is_full_for(pkt):
            return "drop"
        return "enqueue"

    def _mark_or_drop(self, pkt: Packet) -> str:
        """Verdict for a packet the AQM picked: CE mark if it can carry one."""
        if self.ecn and pkt.ect:
            return "mark"
        return "drop"

    def aqm_state(self) -> Optional[Dict[str, Any]]:
        """Controller state for ``queue_sample`` trace records.

        AQM subclasses override this to expose their internal signal
        (RED's average queue and ``max_p``, PI's probability); plain
        FIFOs report ``None``.
        """
        return None

    # -- mechanics ---------------------------------------------------------
    def enqueue(self, pkt: Packet, now: float) -> bool:
        """Offer *pkt* to the queue; returns True if it was accepted."""
        stats = self.stats
        buf = self._buf
        stats.arrivals += 1
        if self._plain_admit:
            # Inlined tail-drop admit(): same decision, no method call,
            # and the drop is by construction a forced (overflow) drop.
            if len(buf) >= self.capacity:
                stats.drops += 1
                stats.forced_drops += 1
                if self.obs is not None:
                    self.obs.queue_event(self, "drop", pkt, now, forced=True)
                return False
            buf.append(pkt)
            self._bytes += pkt.size
            stats.enqueues += 1
            stats.bytes_in += pkt.size
            if self.obs is not None:
                self.obs.queue_event(self, "enqueue", pkt, now)
            return True
        verdict = self.admit(pkt, now)
        if verdict == "enqueue":
            pass
        elif verdict == "mark":
            # Sanity: admit() must only mark ECN-capable packets.
            pkt.ce = True
            stats.marks += 1
        elif verdict == "drop":
            stats.drops += 1
            forced = self.is_full_for(pkt)
            if forced:
                stats.forced_drops += 1
            else:
                stats.early_drops += 1
            if self.obs is not None:
                self.obs.queue_event(self, "drop", pkt, now, forced=forced)
            return False
        else:
            raise ValueError(f"bad admit() verdict {verdict!r}")
        self._buf.append(pkt)
        self._bytes += pkt.size
        stats.enqueues += 1
        stats.bytes_in += pkt.size
        if self.obs is not None:
            self.obs.queue_event(self, verdict, pkt, now)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or ``None``.

        Contract for every discipline: on an empty buffer this returns
        ``None`` and changes nothing, so a link that finds the buffer
        empty skips the call.
        """
        buf = self._buf
        if not buf:
            return None
        stats = self.stats
        pkt = buf.popleft()
        self._bytes -= pkt.size
        stats.departures += 1
        stats.bytes_out += pkt.size
        if self.obs is not None:
            self.obs.queue_departure(self, pkt, now)
        return pkt

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    @property
    def byte_length(self) -> int:
        return self._bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {len(self._buf)}/{self.capacity} pkts "
            f"drops={self.stats.drops} marks={self.stats.marks}>"
        )


#: the plain FIFO's own methods, captured at import: a queue whose class
#: resolves all three to these is a plain tail-drop FIFO
_PLAIN_OPS = (QueueDiscipline.admit, QueueDiscipline.enqueue,
              QueueDiscipline.dequeue)


class SampledAqmQueue(QueueDiscipline):
    """A queue that steps a *controller* law on its length at ``sample_hz``.

    The router-side adapter for the stateful laws of :mod:`repro.laws`:
    the signal is the instantaneous queue length in packets, sampled by a
    self-scheduled tick when *sim* is given (otherwise callers invoke
    :meth:`update` themselves).  Subclasses own their constructor
    keywords and the per-arrival coin-flip rule (:meth:`admit`).
    """

    def __init__(self, capacity_pkts: int, controller: Any, sample_hz: float,
                 ecn: bool, sim: Optional[Simulator],
                 rng: random.Random) -> None:
        super().__init__(capacity_pkts)
        if sample_hz <= 0:
            raise ValueError("sample_hz must be positive")
        self.controller = controller
        self.period = 1.0 / sample_hz
        self.ecn = ecn
        self.rng = rng
        if sim is not None:
            self._attach(sim)

    def _attach(self, sim: Simulator) -> None:
        sim.schedule_fire(self.period, self._tick, sim)

    def _tick(self, sim: Simulator) -> None:
        self.update()
        sim.schedule_fire(self.period, self._tick, sim)

    def update(self) -> float:
        """One controller step; returns the new mark probability."""
        return self.controller.update(float(len(self._buf)))
