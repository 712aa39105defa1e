"""The Collector: the one place a simulated component is recorded.

Instrumented components (queue disciplines, links, TCP senders) carry an
``obs`` attribute that is ``None`` by default; the hot-path cost of the
instrumentation when disabled is one attribute load and an ``is None``
test per hook site (guarded by ``tests/obs/test_overhead.py``).
Attaching a component gives it an *instrument* of its own in that slot —
its label, its sample clock, its histograms and a reference to the
collector's record list — so a hook is one method call on the
component's own attribute, with nothing to look up.

What a component already counts (``QueueStats``, a sender's
``timeouts``) is published as a :class:`~repro.obs.metrics.Reading` of
that counter, taken when the snapshot is; a hook never counts an event a
second time.  Every trace record of a run — packet events, window cuts,
a tagged flow's per-ACK samples, the periodic samples — is appended to
:attr:`Collector.records`, in simulation order; there is no other list.

Design rule (pinned by the obs-on/off golden test): an instrument never
schedules simulator events, never draws randomness, and never mutates
the component it observes — so enabling collection cannot perturb a
simulation.  "Periodic" samples are therefore evaluated lazily at hook
time: a sample record is emitted at most once per ``sample_interval`` of
simulated time, timestamped with the event that triggered it.
"""

from __future__ import annotations

import math
from typing import List, Optional

from .metrics import (
    CWND_EDGES,
    QUEUE_DELAY_EDGES,
    QUEUE_LEN_EDGES,
    MetricsRegistry,
)
from .records import TRACE_SCHEMA

__all__ = ["Collector"]


class _QueueInstrument:
    """A queue discipline's ``obs`` (hooks in ``enqueue`` / ``dequeue``)."""

    __slots__ = ("label", "bandwidth", "interval", "next_sample", "records",
                 "packet_events", "h_qlen", "h_delay")

    def __init__(self, col: "Collector", label: str, bandwidth: Optional[float]):
        self.label = label
        self.bandwidth = bandwidth
        self.interval = col.sample_interval
        self.next_sample = 0.0
        self.records = col.records
        self.packet_events = col.trace_packet_events
        self.h_qlen = col.registry.histogram(f"queue.{label}.qlen", QUEUE_LEN_EDGES)
        self.h_delay = col.registry.histogram(f"queue.{label}.delay", QUEUE_DELAY_EDGES)

    def queue_event(self, qdisc, kind: str, pkt, now: float, forced: bool = False) -> None:
        """Hook: *pkt* was enqueued, dropped or marked (*kind*) at *qdisc*."""
        records = self.records
        if records is not None and (kind != "enqueue" or self.packet_events):
            rec = {
                "v": TRACE_SCHEMA, "type": kind, "t": now,
                "queue": self.label, "flow": pkt.flow_id, "seq": pkt.seq,
                "qlen": len(qdisc),
            }
            if kind == "drop":
                rec["forced"] = forced
            records.append(rec)
        if now >= self.next_sample:
            self._sample(qdisc, now)

    def queue_departure(self, qdisc, pkt, now: float) -> None:
        """Hook: *pkt* left *qdisc*; may emit a periodic queue sample."""
        if now >= self.next_sample:
            self._sample(qdisc, now)

    def _sample(self, qdisc, now: float) -> None:
        self.next_sample = now + self.interval
        qlen = len(qdisc)
        nbytes = qdisc.byte_length
        delay = nbytes * 8.0 / self.bandwidth if self.bandwidth else None
        self.h_qlen.observe(qlen)
        if delay is not None:
            self.h_delay.observe(delay)
        if self.records is not None:
            rec = {
                "v": TRACE_SCHEMA, "type": "queue_sample", "t": now,
                "queue": self.label, "qlen": qlen, "bytes": nbytes,
                "delay": delay,
            }
            aqm = qdisc.aqm_state()
            if aqm is not None:
                rec["aqm"] = aqm
            self.records.append(rec)


class _SenderInstrument:
    """A TCP sender's ``obs`` (hooks in ``TcpSender`` and ``PertSender``)."""

    __slots__ = ("interval", "next_sample", "every_ack", "next_signal",
                 "records", "h_cwnd")

    def __init__(self, col: "Collector", label: str, every_ack: bool):
        self.interval = col.sample_interval
        self.next_sample = 0.0
        self.every_ack = every_ack
        #: ``signal`` records only exist in a trace: never due without one
        self.next_signal = 0.0 if col.records is not None else float("inf")
        self.records = col.records
        self.h_cwnd = col.registry.histogram(f"flow.{label}.cwnd", CWND_EDGES)

    def rtt_sample(self, sender, now: float, rtt: float) -> None:
        """Hook: *sender* took a valid RTT sample (its window not yet grown)."""
        if self.every_ack:
            self.records.append({
                "v": TRACE_SCHEMA, "type": "rtt_sample", "t": now,
                "flow": sender.flow_id, "rtt": rtt, "cwnd": sender.cwnd,
            })

    def sender_signal(self, sender, now: float, p: float) -> None:
        """Hook: a PERT *sender* evaluated its law to *p* on this ACK."""
        if now < self.next_signal:
            return
        if not self.every_ack:
            self.next_signal = now + self.interval
        signal = sender.signal
        self.records.append({
            "v": TRACE_SCHEMA, "type": "signal", "t": now,
            "flow": sender.flow_id, "srtt": signal.value,
            "signal": signal.queuing_delay, "p": p,
        })

    def sender_event(self, sender, kind: str, now: float, cwnd: float,
                     p: Optional[float] = None) -> None:
        """Hook: *sender* cut its window from *cwnd* — a ``loss``, a
        ``timeout`` or, with the law's output *p*, an ``early_response``."""
        if self.records is None:
            return
        rec = {
            "v": TRACE_SCHEMA, "type": kind, "t": now,
            "flow": sender.flow_id, "cwnd": cwnd, "cwnd_after": sender.cwnd,
        }
        if kind == "early_response":
            signal = sender.signal
            rec.update(srtt=signal.value, signal=signal.queuing_delay, p=p)
        self.records.append(rec)

    def sender_ack(self, sender, now: float) -> None:
        """Hook: *sender* processed an ACK; may emit a cwnd sample."""
        if now < self.next_sample:
            return
        self.next_sample = now + self.interval
        self.h_cwnd.observe(sender.cwnd)
        if self.records is not None:
            self.records.append({
                "v": TRACE_SCHEMA, "type": "cwnd_sample", "t": now,
                "flow": sender.flow_id, "cwnd": sender.cwnd,
                "ssthresh": sender.ssthresh, "srtt": sender.srtt,
            })


class _LinkInstrument:
    """A link's ``obs`` (hook in ``Link._tx_done``)."""

    __slots__ = ("label", "interval", "next_sample", "records")

    def __init__(self, col: "Collector", label: str):
        self.label = label
        self.interval = col.sample_interval
        self.next_sample = 0.0
        self.records = col.records

    def link_tx(self, link, now: float) -> None:
        """Hook: *link* transmitted a packet; may emit a link sample."""
        if now < self.next_sample:
            return
        self.next_sample = now + self.interval
        self.records.append({
            "v": TRACE_SCHEMA, "type": "link_sample", "t": now,
            "link": self.label, "bytes": link.bytes_transmitted,
            "pkts": link.packets_transmitted,
        })


class Collector:
    """Aggregates metrics and (optionally) trace records for one run.

    Parameters
    ----------
    registry:
        Metrics registry to publish into (a fresh one by default).
    trace:
        Keep trace records (enqueue/drop/mark, window cuts, a tagged
        flow's per-ACK samples, plus periodic samples) in :attr:`records`
        for the JSONL sink.  Off by default because packet-event traces
        grow with the event count.
    sample_interval:
        Minimum simulated seconds between consecutive ``queue_sample`` /
        ``cwnd_sample`` / ``signal`` / ``link_sample`` emissions per
        component.
    trace_packet_events:
        When tracing, also record one ``enqueue`` record per admitted
        packet (the chattiest record type).  Drops and marks are always
        recorded when tracing.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace: bool = False,
        sample_interval: float = 0.1,
        trace_packet_events: bool = True,
    ):
        if not (math.isfinite(sample_interval) and sample_interval > 0):
            raise ValueError("sample_interval must be a finite number > 0, "
                             f"got {sample_interval!r}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.records: Optional[List[dict]] = [] if trace else None
        self.sample_interval = sample_interval
        self.trace_packet_events = trace_packet_events

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach_queue(self, qdisc, label: str, bandwidth: Optional[float] = None) -> None:
        """Observe a queue discipline; *bandwidth* (bps) enables the
        drain-time queue-delay estimate in samples and histograms."""
        for counter in ("enqueues", "drops", "forced_drops", "marks",
                        "arrivals", "drop_rate"):
            self.registry.reading(f"queue.{label}.{counter}", qdisc.stats, counter)
        qdisc.obs = _QueueInstrument(self, label, bandwidth)

    def attach_sender(self, sender, label: Optional[str] = None,
                      every_ack: bool = False) -> None:
        """Observe a TCP sender (window cuts, cwnd, PERT's signal).

        *every_ack* tags the flow: every valid RTT sample is recorded
        (``rtt_sample``) and PERT's ``signal`` on every ACK instead of on
        the sample clock — the per-ACK view of one flow the paper's
        Section 2 studies.  Needs a tracing collector.
        """
        if every_ack and self.records is None:
            raise ValueError("every_ack needs a collector that keeps records "
                             "(trace=True)")
        label = label if label is not None else str(sender.flow_id)
        for counter in ("early_responses", "timeouts"):
            self.registry.reading(f"flow.{label}.{counter}", sender, counter)
        sender.obs = _SenderInstrument(self, label, every_ack)

    def attach_link(self, link, label: str) -> None:
        """Observe a link's transmit progress: periodic byte counters in
        the trace, so nothing to attach unless tracing."""
        if self.records is not None:
            link.obs = _LinkInstrument(self, label)

    # ------------------------------------------------------------------
    def finalize(self, sim) -> None:
        """Record end-of-run engine gauges (events processed, sim time)."""
        self.registry.gauge("sim.events_processed").set(sim.events_processed)
        self.registry.gauge("sim.time").set(sim.now)

    def snapshot(self) -> dict:
        """Metrics snapshot (delegates to the registry)."""
        return self.registry.snapshot()
