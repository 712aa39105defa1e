"""Window-based TCP sender/receiver agents at packet granularity.

This is the transport substrate the paper's evaluation rests on.  The
sender implements the loss-based machinery shared by every variant in the
paper's comparison set:

* slow start and congestion avoidance (one segment per RTT),
* fast retransmit / SACK-based loss recovery (a packet-granularity
  rendition of RFC 6675's pipe algorithm, as in ns-2's ``sack1``),
* retransmission timeouts with exponential backoff and Karn's rule,
* ECN (ECT on data, CE marked by AQM queues, ECE echoed by the receiver,
  CWR on response; one window reduction per RTT).

Sequence numbers count *packets*, not bytes, exactly as ns-2's TCP agents
do; only packet sizes matter to the queues.  Subclasses hook into
:meth:`TcpSender.on_ack` (per-ACK, with the RTT sample) and
:meth:`TcpSender._increase_on_ack` (window growth) — TCP Vegas and PERT
are built on these hooks.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

from ..sim.engine import Event, Simulator
from ..sim.node import Node
from ..sim.packet import ACK_SIZE, DATA_SIZE, Packet

__all__ = ["TcpSender", "TcpSink", "connect_flow"]

# Loss-recovery constants
DUPACK_THRESHOLD = 3
MIN_RTO = 0.2  # ns-2's minrto_ default used in AQM studies
MAX_RTO = 60.0
INITIAL_RTO = 3.0
MAX_SACK_BLOCKS = 3  # SACK blocks per ACK, as the TCP option has room for


class TcpSender:
    """SACK TCP sender.

    Parameters
    ----------
    sim, node:
        Simulator and the host this agent lives on.
    flow_id:
        Flow identifier shared with the receiving :class:`TcpSink`.
    dst:
        Node id of the receiver's host.
    pkt_size:
        Data packet size in bytes.
    ecn:
        Negotiate ECN: set ECT on data and halve the window on ECE.
    max_cwnd:
        Receiver/advertised window in packets.
    rng:
        Random stream (used only by subclasses that respond
        probabilistically; the base sender is deterministic).

    A sender keeps counters, never series: its RTT samples, loss
    detections and timeouts are hook calls on ``obs``, and
    ``Collector.attach_sender(sender, every_ack=True)`` is what records
    every one of them (the paper's Section 2 "observed" flow).
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow_id: int,
        dst: int,
        pkt_size: int = DATA_SIZE,
        ecn: bool = False,
        initial_cwnd: float = 2.0,
        max_cwnd: float = 1e9,
        loss_beta: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.dst = dst
        self.pkt_size = pkt_size
        self.ecn = ecn
        self.loss_beta = loss_beta
        self.rng = rng or sim.stream(f"tcp{flow_id}")

        # congestion state
        self.cwnd = float(initial_cwnd)
        self.initial_cwnd = float(initial_cwnd)
        self.ssthresh = float(max_cwnd)
        self.max_cwnd = float(max_cwnd)

        # sequence state (packet granularity)
        self.next_seq = 0  # next never-sent packet
        self.high_water = 0  # one past highest sent
        self.cum_ack = 0  # everything below is delivered
        self.sacked: Set[int] = set()
        self.lost: Set[int] = set()
        self.rtx_out: Set[int] = set()  # retransmitted, not yet (s)acked
        self.highest_sacked = -1
        self.dupacks = 0
        self.in_recovery = False
        self.recovery_point = 0

        # RTT / RTO estimation (RFC 6298)
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = INITIAL_RTO
        self._backoff = 1
        self._sent_time: Dict[int, float] = {}  # seq -> send time (cleared on rtx)
        self._last_rtx_time = -1.0  # Karn guard for gated cumulative ACKs
        self.min_rtt = float("inf")
        self.last_rtt: Optional[float] = None

        # ECN
        self._cwr_pending = False
        self._last_ecn_response = -1e9

        # application
        self.app_limit: Optional[int] = None  # total packets to send
        self.on_complete: Optional[Callable[["TcpSender"], None]] = None
        self.started = False
        self.done = False

        # counters
        self.pkts_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.fast_recoveries = 0
        self.ecn_responses = 0

        #: this sender's instrument (``Collector.attach_sender``); the
        #: hooks are no-ops (one attribute test) while this is ``None``
        self.obs: Optional[Any] = None

        #: the flow's one restartable RTO timer.  The handle is kept
        #: while cancelled so the next arm can revive its heap entry
        #: (Simulator.reschedule); ``None`` once it has fired.
        self._rtx_timer: Optional[Event] = None
        node.register_endpoint(flow_id, self)

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None, npackets: Optional[int] = None) -> None:
        """Begin transmitting: *npackets* total, or forever if ``None``."""
        self.app_limit = npackets
        if at is None or at <= self.sim.now:
            self.sim.schedule(0.0, self._begin)
        else:
            self.sim.schedule_at(at, self._begin)

    def _begin(self) -> None:
        self.started = True
        self._try_send()

    def stop(self) -> None:
        """Cease sending new data (in-flight packets still drain)."""
        self.app_limit = self.high_water
        self._cancel_rtx_timer()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def pipe(self) -> int:
        """Estimate of packets currently in the network (RFC 6675)."""
        window = self.high_water - self.cum_ack
        return window - len(self.sacked) - len(self.lost) + len(self.rtx_out)

    def _next_hole(self) -> Optional[int]:
        """Lowest lost packet not yet retransmitted (RFC 6675 NextSeg rule 1)."""
        for seq in sorted(self.lost):
            if seq not in self.rtx_out and seq not in self.sacked:
                return seq
        return None

    def _try_send(self) -> None:
        if not self.started or self.done:
            return
        # The window check is the `pipe` property inlined: _try_send runs
        # on every ACK, and the property + min() calls showed up hot.
        window = self.cwnd
        if self.max_cwnd < window:
            window = self.max_cwnd
        while (self.high_water - self.cum_ack - len(self.sacked)
               - len(self.lost) + len(self.rtx_out)) < window:
            # holes first (only recovery has any), then new data
            seq = self._next_hole() if self.lost else None
            if seq is not None:
                self._transmit(seq, True)
            elif self.app_limit is None or self.next_seq < self.app_limit:
                self._transmit(self.next_seq, False)
            else:
                break

    def _transmit(self, seq: int, is_rtx: bool) -> None:
        # positional: (flow_id, src, dst, size, seq, is_ack, ack_seq,
        # sack_blocks, ect) — keyword binding showed up per packet
        pkt = Packet(self.flow_id, self.node.node_id, self.dst, self.pkt_size,
                     seq, False, -1, None, self.ecn)
        pkt.is_retransmit = is_rtx
        if self._cwr_pending:
            pkt.cwr = True
            self._cwr_pending = False
        if is_rtx:
            self.retransmits += 1
            self.rtx_out.add(seq)
            # Karn: never take RTT samples from retransmitted packets,
            # and invalidate samples of anything sent before this
            # retransmission (their cumulative ACK may be gated by the
            # hole being repaired, not by the network's RTT).
            self._sent_time.pop(seq, None)
            self._last_rtx_time = self.sim.now
        else:
            self._sent_time[seq] = self.sim.now
            self.next_seq = seq + 1
            if self.next_seq > self.high_water:
                self.high_water = self.next_seq
        self.pkts_sent += 1
        timer = self._rtx_timer
        if timer is None or timer.cancelled:
            self._arm_rtx_timer()
        self.node.send(pkt)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        """Endpoint entry point; senders only ever receive ACKs."""
        if not pkt.is_ack or self.done:
            return
        rtt_sample = self._process_ack_seq(pkt)
        # The guards keep the loss-free ACK from paying a frame to learn
        # it carries no SACK block and the flow has no end.
        if pkt.sack_blocks:
            self._process_sack(pkt)
        if self.ecn and pkt.ece:
            self._ecn_response()
        self.on_ack(pkt, rtt_sample)
        if self.app_limit is not None:
            self._check_complete()
        self._try_send()
        if self.obs is not None:
            self.obs.sender_ack(self, self.sim.now)

    def _process_ack_seq(self, pkt: Packet) -> Optional[float]:
        """Handle cumulative-ACK advance; returns the RTT sample if any."""
        rtt_sample = None
        if pkt.ack_seq > self.cum_ack:
            newly_acked_hi = pkt.ack_seq - 1
            sent = self._sent_time.pop(newly_acked_hi, None)
            if sent is not None and sent >= self._last_rtx_time:
                rtt_sample = self.sim.now - sent
                self._rtt_update(rtt_sample)
            # prune per-seq state below the new cumulative ACK; in the
            # loss-free steady state all three scoreboards are empty and
            # only the send-time map needs clearing
            sent_time = self._sent_time
            if self.sacked or self.lost or self.rtx_out:
                for seq in range(self.cum_ack, pkt.ack_seq):
                    self.sacked.discard(seq)
                    self.lost.discard(seq)
                    self.rtx_out.discard(seq)
                    sent_time.pop(seq, None)
            else:
                for seq in range(self.cum_ack, pkt.ack_seq):
                    sent_time.pop(seq, None)
            n_newly_acked = pkt.ack_seq - self.cum_ack
            self.cum_ack = pkt.ack_seq
            self.dupacks = 0
            self._backoff = 1
            if self.in_recovery:
                if self.cum_ack >= self.recovery_point:
                    self._exit_recovery()
                else:
                    # Partial ACK: the next unsacked hole was lost too.
                    if self.cum_ack not in self.sacked:
                        self.lost.add(self.cum_ack)
            else:
                for _ in range(n_newly_acked):
                    self._increase_on_ack()
            if self.high_water > self.cum_ack:
                self._arm_rtx_timer()
            else:
                self._cancel_rtx_timer()
        elif pkt.ack_seq == self.cum_ack and self.high_water > self.cum_ack:
            self._on_dupack()
        return rtt_sample

    def _process_sack(self, pkt: Packet) -> None:
        changed = False
        for start, end in pkt.sack_blocks:
            for seq in range(max(start, self.cum_ack), end):
                if seq not in self.sacked:
                    self.sacked.add(seq)
                    self.lost.discard(seq)
                    self.rtx_out.discard(seq)
                    changed = True
                    if seq > self.highest_sacked:
                        self.highest_sacked = seq
        if changed:
            self._mark_losses()

    def _mark_losses(self) -> None:
        """SACK loss inference: 3+ packets SACKed above ⇒ the hole is lost."""
        limit = self.highest_sacked - (DUPACK_THRESHOLD - 1)
        seq = self.cum_ack
        while seq < limit:
            if seq not in self.sacked and seq not in self.lost:
                self.lost.add(seq)
                if not self.in_recovery:
                    self._enter_recovery()
            seq += 1

    def _on_dupack(self) -> None:
        self.dupacks += 1
        if not self.in_recovery and self.dupacks >= DUPACK_THRESHOLD:
            if self.cum_ack not in self.sacked:
                self.lost.add(self.cum_ack)
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        if self.in_recovery:
            return
        self.in_recovery = True
        self.fast_recoveries += 1
        self.recovery_point = self.high_water
        cwnd = self.cwnd
        self.ssthresh = max(2.0, cwnd * self.loss_beta)
        self.cwnd = self.ssthresh
        if self.obs is not None:
            self.obs.sender_event(self, "loss", self.sim.now, cwnd)
        self.on_loss_response()

    def _exit_recovery(self) -> None:
        self.in_recovery = False
        self.lost.clear()
        self.rtx_out.clear()
        self.dupacks = 0

    # ------------------------------------------------------------------
    # window growth + variant hooks
    # ------------------------------------------------------------------
    def _increase_on_ack(self) -> None:
        """Standard TCP growth: slow start, then 1/cwnd per ACK."""
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + 1.0, self.max_cwnd)
        else:
            self.cwnd = min(self.cwnd + 1.0 / self.cwnd, self.max_cwnd)

    def on_ack(self, pkt: Packet, rtt_sample: Optional[float]) -> None:
        """Per-ACK hook for delay-based variants (Vegas, PERT)."""

    def on_loss_response(self) -> None:
        """Hook invoked when a loss-triggered window reduction happens."""

    # ------------------------------------------------------------------
    # ECN
    # ------------------------------------------------------------------
    def _ecn_response(self) -> None:
        """Halve the window on ECE, at most once per RTT (RFC 3168)."""
        rtt = self.srtt if self.srtt is not None else self.rto
        if self.sim.now - self._last_ecn_response < rtt:
            return
        self._last_ecn_response = self.sim.now
        self.ecn_responses += 1
        self.ssthresh = max(2.0, self.cwnd * self.loss_beta)
        self.cwnd = self.ssthresh
        self._cwr_pending = True

    # ------------------------------------------------------------------
    # RTT / RTO
    # ------------------------------------------------------------------
    def _rtt_update(self, sample: float) -> None:
        self.last_rtt = sample
        if sample < self.min_rtt:
            self.min_rtt = sample
        if self.obs is not None:
            self.obs.rtt_sample(self, self.sim.now, sample)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        rto = self.srtt + 4.0 * self.rttvar
        if rto < MIN_RTO:
            rto = MIN_RTO
        elif rto > MAX_RTO:
            rto = MAX_RTO
        self.rto = rto

    def _arm_rtx_timer(self) -> None:
        """(Re)start the RTO timer from now; runs on every new ACK."""
        delay = self.rto * self._backoff
        if delay > MAX_RTO:
            delay = MAX_RTO
        self._rtx_timer = self.sim.reschedule(
            self._rtx_timer, delay, self._on_timeout
        )

    def _cancel_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()

    def _on_timeout(self) -> None:
        self._rtx_timer = None
        if self.done or self.cum_ack >= self.high_water:
            return
        self.timeouts += 1
        cwnd = self.cwnd
        self.ssthresh = max(2.0, cwnd * self.loss_beta)
        self.cwnd = 1.0
        if self.obs is not None:
            self.obs.sender_event(self, "timeout", self.sim.now, cwnd)
        self.in_recovery = False
        self.dupacks = 0
        # Go-back-N at the scoreboard level: everything unsacked is lost.
        self.lost = {
            seq for seq in range(self.cum_ack, self.high_water) if seq not in self.sacked
        }
        self.rtx_out.clear()
        self._backoff = min(self._backoff * 2, 64)
        self._arm_rtx_timer()
        self._try_send()

    # ------------------------------------------------------------------
    def _check_complete(self) -> None:
        if self.app_limit is not None and not self.done and self.cum_ack >= self.app_limit:
            self.done = True
            self._cancel_rtx_timer()
            # never re-armed again: drop the handle so a finished sender is
            # not kept alive by the sender -> handle -> bound-method cycle
            self._rtx_timer = None
            if self.on_complete is not None:
                self.on_complete(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} flow={self.flow_id} cwnd={self.cwnd:.1f} "
            f"cum_ack={self.cum_ack} pipe={self.pipe}>"
        )


class TcpSink:
    """TCP receiver: cumulative ACK + up to 3 SACK blocks + ECN echo.

    ACKs every data packet immediately, which matches the per-ACK RTT
    sampling PERT depends on (and ns-2's default for these studies).
    """

    def __init__(self, sim: Simulator, node: Node, flow_id: int,
                 src: int) -> None:
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.src = src
        self.rcv_next = 0
        self.out_of_order: Set[int] = set()
        self.ece_active = False
        self.pkts_received = 0
        self.dup_pkts = 0
        self.acks_sent = 0
        self.bytes_received = 0  # unique payload bytes delivered in order
        node.register_endpoint(flow_id, self)

    def receive(self, pkt: Packet) -> None:
        if pkt.is_ack:
            return
        self.pkts_received += 1
        if pkt.ce:
            self.ece_active = True
        if pkt.cwr:
            self.ece_active = False
        if pkt.seq == self.rcv_next:
            self.rcv_next += 1
            self.bytes_received += pkt.size
            while self.rcv_next in self.out_of_order:
                self.out_of_order.discard(self.rcv_next)
                self.rcv_next += 1
                self.bytes_received += pkt.size
        elif pkt.seq > self.rcv_next:
            if pkt.seq in self.out_of_order:
                self.dup_pkts += 1
            else:
                self.out_of_order.add(pkt.seq)
        else:
            self.dup_pkts += 1
        self._send_ack()

    def _sack_blocks(self) -> List[Tuple[int, int]]:
        if not self.out_of_order:
            return []
        blocks: List[Tuple[int, int]] = []
        run_start = None
        prev = None
        for seq in sorted(self.out_of_order):
            if run_start is None:
                run_start, prev = seq, seq
            elif seq == prev + 1:
                prev = seq
            else:
                blocks.append((run_start, prev + 1))
                run_start, prev = seq, seq
        blocks.append((run_start, prev + 1))
        # Most recent (highest) blocks are the most useful to the sender.
        return blocks[-MAX_SACK_BLOCKS:]

    def _send_ack(self) -> None:
        # positional: (flow_id, src, dst, size, seq, is_ack, ack_seq,
        # sack_blocks); None is the shared empty block list
        ack = Packet(self.flow_id, self.node.node_id, self.src, ACK_SIZE, -1,
                     True, self.rcv_next,
                     self._sack_blocks() if self.out_of_order else None)
        ack.ece = self.ece_active
        self.acks_sent += 1
        self.node.send(ack)


def connect_flow(
    sim: Simulator,
    src_node: Node,
    dst_node: Node,
    flow_id: int,
    sender_cls: Type[TcpSender] = TcpSender,
    **sender_kwargs: Any,
) -> Tuple[TcpSender, TcpSink]:
    """Create a sender on *src_node* and a sink on *dst_node* for one flow."""
    sender = sender_cls(
        sim, src_node, flow_id=flow_id, dst=dst_node.node_id, **sender_kwargs
    )
    sink = TcpSink(sim, dst_node, flow_id=flow_id, src=src_node.node_id)
    return sender, sink
