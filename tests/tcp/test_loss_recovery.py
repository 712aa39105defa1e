"""Unit tests for loss detection and recovery (SACK, dupacks, RTO)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.tcp.base import TcpSender, TcpSink

from ..conftest import loss_events, make_dumbbell, make_flow, rtt_trace


class LossyQueue(DropTailQueue):
    """DropTail that deterministically drops selected data seqs once."""

    def __init__(self, capacity_pkts, drop_seqs):
        super().__init__(capacity_pkts)
        self.drop_seqs = set(drop_seqs)

    def admit(self, pkt, now):
        if not pkt.is_ack and pkt.seq in self.drop_seqs and not pkt.is_retransmit:
            self.drop_seqs.discard(pkt.seq)
            return "drop"
        return super().admit(pkt, now)


def run_lossy(drop_seqs, npackets=60):
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, qdisc_factory=lambda: LossyQueue(200, drop_seqs))
    sender, sink = make_flow(sim, db, sender_cls=TcpSender, tagged=True)
    sender.start(npackets=npackets)
    sim.run(until=60.0)
    return sender, sink


def test_single_loss_recovered_by_fast_retransmit():
    sender, sink = run_lossy({10})
    assert sink.rcv_next == 60
    assert sender.fast_recoveries == 1
    assert sender.timeouts == 0
    assert sender.retransmits == 1


def test_loss_halves_window():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, qdisc_factory=lambda: LossyQueue(200, {30}))
    sender, sink = make_flow(sim, db)
    sender.start(npackets=100)
    cwnd_at_loss = []
    orig = sender._enter_recovery

    def spy():
        cwnd_at_loss.append(sender.cwnd)
        orig()

    sender._enter_recovery = spy
    sim.run(until=30.0)
    assert sink.rcv_next == 100
    # after recovery entry, cwnd = ssthresh = old cwnd * 0.5
    assert sender.ssthresh <= cwnd_at_loss[0] * 0.5 + 1e-9


def test_burst_loss_recovered_without_timeout():
    sender, sink = run_lossy({20, 21, 22, 23})
    assert sink.rcv_next == 60
    assert sender.timeouts == 0
    assert sender.retransmits == 4


def test_scattered_losses_recovered():
    sender, sink = run_lossy({5, 17, 33, 48})
    assert sink.rcv_next == 60
    assert sender.timeouts == 0


def test_lost_retransmission_triggers_timeout():
    class DoubleDropQueue(DropTailQueue):
        def __init__(self):
            super().__init__(200)
            self.drops_left = 2

        def admit(self, pkt, now):
            if not pkt.is_ack and pkt.seq == 10 and self.drops_left:
                self.drops_left -= 1
                return "drop"
            return super().admit(pkt, now)

    sim = Simulator(seed=1)
    db = make_dumbbell(sim, qdisc_factory=DoubleDropQueue)
    sender, sink = make_flow(sim, db)
    sender.start(npackets=40)
    sim.run(until=60.0)
    assert sink.rcv_next == 40
    assert sender.timeouts >= 1


def test_timeout_resets_to_slow_start():
    class BlackholeQueue(DropTailQueue):
        """Drops everything in a time window (simulates outage)."""

        def __init__(self, sim):
            super().__init__(200)
            self.sim = sim

        def admit(self, pkt, now):
            if 0.5 < now < 1.5:
                return "drop"
            return super().admit(pkt, now)

    sim = Simulator(seed=1)
    db = make_dumbbell(sim, qdisc_factory=lambda: BlackholeQueue(sim))
    sender, sink = make_flow(sim, db)
    sender.start()
    sim.run(until=10.0)
    assert sender.timeouts >= 1
    assert sink.rcv_next > 0
    # flow recovered after the outage
    delivered_at_2 = sink.rcv_next
    sim.run(until=12.0)
    assert sink.rcv_next > delivered_at_2


def test_loss_events_recorded():
    sender, sink = run_lossy({10, 30})
    assert len(loss_events(sender)) == 2


def test_karn_no_rtt_sample_from_retransmit():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, qdisc_factory=lambda: LossyQueue(200, {5}))
    sender, sink = make_flow(sim, db, tagged=True)
    sender.start(npackets=30)
    sim.run(until=30.0)
    # all recorded samples must be plausible path RTTs (no rtx ambiguity:
    # a sample measured from the original send of a retransmitted packet
    # would be far larger than the true RTT)
    rtts = [r for _, r, _ in rtt_trace(sender)]
    assert max(rtts) < 0.2
