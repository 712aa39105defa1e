"""Unit tests for the receiver (cumulative ACK, SACK blocks) and ECN."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import RedQueue
from repro.sim.queues.base import QueueDiscipline
from repro.tcp.base import TcpSink

from ..conftest import make_dumbbell, make_flow
from repro.tcp.sack import SackEcnSender


class AckCatcher:
    def __init__(self):
        self.acks = []

    def receive(self, pkt):
        self.acks.append(pkt)


def make_sink(sim):
    recv_node = Node(sim, 0, "recv")
    send_node = Node(sim, 1, "send")
    catcher = AckCatcher()
    send_node.register_endpoint(7, catcher)
    # loopback: sink's acks are routed directly to the catcher's node
    class DirectLink:
        def __init__(self, dst):
            self.dst = dst

        def send(self, pkt):
            self.dst.receive(pkt)

    recv_node.add_route(1, DirectLink(send_node))
    sink = TcpSink(sim, recv_node, flow_id=7, src=1)
    return sink, catcher


def data(seq, ce=False, cwr=False):
    p = Packet(flow_id=7, src=1, dst=0, seq=seq)
    p.ce = ce
    p.cwr = cwr
    return p


def test_in_order_cumulative_acks():
    sim = Simulator()
    sink, catcher = make_sink(sim)
    for i in range(3):
        sink.receive(data(i))
    assert [a.ack_seq for a in catcher.acks] == [1, 2, 3]
    assert all(not a.sack_blocks for a in catcher.acks)


def test_gap_generates_dupacks_with_sack():
    sim = Simulator()
    sink, catcher = make_sink(sim)
    sink.receive(data(0))
    sink.receive(data(2))  # hole at 1
    sink.receive(data(3))
    acks = catcher.acks
    assert [a.ack_seq for a in acks] == [1, 1, 1]
    assert acks[1].sack_blocks == [(2, 3)]
    assert acks[2].sack_blocks == [(2, 4)]


def test_hole_fill_advances_past_buffered():
    sim = Simulator()
    sink, catcher = make_sink(sim)
    for seq in (0, 2, 3, 1):
        sink.receive(data(seq))
    assert catcher.acks[-1].ack_seq == 4
    assert sink.out_of_order == set()


def test_multiple_sack_blocks_capped_at_three():
    sim = Simulator()
    sink, catcher = make_sink(sim)
    sink.receive(data(0))
    for seq in (2, 4, 6, 8, 10):  # five separate blocks
        sink.receive(data(seq))
    blocks = catcher.acks[-1].sack_blocks
    assert len(blocks) == 3
    # the highest blocks are kept
    assert blocks[-1] == (10, 11)


def test_duplicate_data_counted():
    sim = Simulator()
    sink, catcher = make_sink(sim)
    sink.receive(data(0))
    sink.receive(data(0))
    assert sink.dup_pkts == 1


def test_ecn_echo_until_cwr():
    sim = Simulator()
    sink, catcher = make_sink(sim)
    sink.receive(data(0, ce=True))
    sink.receive(data(1))
    assert catcher.acks[0].ece and catcher.acks[1].ece
    sink.receive(data(2, cwr=True))
    assert not catcher.acks[2].ece
    sink.receive(data(3))
    assert not catcher.acks[3].ece


def test_ecn_sender_reduces_once_per_rtt():
    """End-to-end: ECN marks cause window reduction without loss."""
    sim = Simulator(seed=1)

    def red():
        return RedQueue(capacity_pkts=100, min_th=4, max_th=12, max_p=0.5,
                        w_q=0.2, ecn=True, rng=sim.stream("red", unique=True))

    db = make_dumbbell(sim, bw=4e6, qdisc_factory=red)
    sender, sink = make_flow(sim, db, sender_cls=SackEcnSender)
    sender.start()
    sim.run(until=10.0)
    assert sender.ecn_responses > 0
    assert db.fwd.qdisc.stats.marks > 0
    # ECN kept the transfer loss-free at the bottleneck for ECT data
    assert sender.timeouts <= 1
    assert sink.rcv_next > 1000


def test_ect_set_only_when_negotiated(monkeypatch):
    # the spy wraps the class before the queues are built: the seam that
    # sees every arrival, idle-link ones included
    arrivals = {}
    orig = QueueDiscipline.enqueue

    def spy(self, pkt, now):
        arrivals.setdefault(self, []).append(pkt)
        return orig(self, pkt, now)

    monkeypatch.setattr(QueueDiscipline, "enqueue", spy)
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s_ecn, _ = make_flow(sim, db, idx=0, sender_cls=SackEcnSender)
    s_plain, _ = make_flow(sim, db, idx=1)
    s_ecn.start(npackets=5)
    s_plain.start(npackets=5)
    sim.run(until=5.0)
    fwd = arrivals[db.fwd.qdisc]
    assert len(fwd) == db.fwd.qdisc.stats.arrivals
    seen = {"ecn": [], "plain": []}
    for pkt in fwd:
        if not pkt.is_ack:
            seen["ecn" if pkt.flow_id == 1000 else "plain"].append(pkt.ect)
    assert all(seen["ecn"]) and seen["ecn"]
    assert not any(seen["plain"]) and seen["plain"]
