"""Unit tests for links, nodes and routing."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitors import LinkWindow
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.sim.topology import Network


class Collector:
    """Endpoint that records arrivals with timestamps."""

    def __init__(self, sim):
        self.sim = sim
        self.seen = []

    def receive(self, pkt):
        self.seen.append((self.sim.now, pkt.seq))


def two_nodes(sim, bw=8e6, delay=0.01, buf=10):
    a = Node(sim, 0, "a")
    b = Node(sim, 1, "b")
    link = Link(sim, a, b, bandwidth=bw, delay=delay, qdisc=DropTailQueue(buf))
    a.add_route(1, link)
    return a, b, link


def test_serialization_plus_propagation_delay():
    sim = Simulator()
    a, b, link = two_nodes(sim, bw=8e6, delay=0.01)
    sink = Collector(sim)
    b.register_endpoint(5, sink)
    pkt = Packet(flow_id=5, src=0, dst=1, size=1000, seq=0)
    sim.schedule(0.0, a.send, pkt)
    sim.run()
    # 1000 B at 8 Mbps = 1 ms serialization + 10 ms propagation
    assert sink.seen == [(pytest.approx(0.011), 0)]


def test_back_to_back_packets_paced_by_bandwidth():
    sim = Simulator()
    a, b, link = two_nodes(sim, bw=8e6, delay=0.0)
    sink = Collector(sim)
    b.register_endpoint(5, sink)
    for i in range(3):
        sim.schedule(0.0, a.send, Packet(flow_id=5, src=0, dst=1, size=1000, seq=i))
    sim.run()
    times = [t for t, _ in sink.seen]
    assert times == [pytest.approx(0.001), pytest.approx(0.002), pytest.approx(0.003)]


def test_queue_overflow_drops_excess():
    sim = Simulator()
    a, b, link = two_nodes(sim, bw=8e4, delay=0.0, buf=2)
    sink = Collector(sim)
    b.register_endpoint(5, sink)
    # one in flight + 2 queued; the rest dropped
    for i in range(10):
        sim.schedule(0.0, a.send, Packet(flow_id=5, src=0, dst=1, size=1000, seq=i))
    sim.run()
    assert len(sink.seen) == 3
    assert link.qdisc.stats.drops == 7


def test_utilization_measurement():
    sim = Simulator()
    a, b, link = two_nodes(sim, bw=8e6, delay=0.0)
    b.register_endpoint(5, Collector(sim))
    for i in range(10):
        sim.schedule(0.0, a.send, Packet(flow_id=5, src=0, dst=1, size=1000, seq=i))
    win = LinkWindow(sim, link)
    win.open()
    sim.run(until=0.0101)  # tiny slack for float accumulation in tx times
    win.close()
    # 10 ms of back-to-back transmission in a 10.1 ms window
    assert win.utilization == pytest.approx(0.01 / 0.0101)


def test_unroutable_packet_counted():
    sim = Simulator()
    a, b, link = two_nodes(sim)
    a.receive(Packet(flow_id=9, src=1, dst=99))
    assert a.packets_unroutable == 1


def test_unknown_flow_at_destination_dropped_silently():
    sim = Simulator()
    a, b, link = two_nodes(sim)
    sim.schedule(0.0, a.send, Packet(flow_id=123, src=0, dst=1))
    sim.run()
    assert b.packets_unroutable == 1


def test_duplicate_endpoint_registration_rejected():
    sim = Simulator()
    node = Node(sim, 0)
    node.register_endpoint(1, Collector(sim))
    with pytest.raises(ValueError):
        node.register_endpoint(1, Collector(sim))


def test_link_validation():
    sim = Simulator()
    a, b = Node(sim, 0), Node(sim, 1)
    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=0, delay=0.01, qdisc=DropTailQueue(5))
    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=1e6, delay=-1, qdisc=DropTailQueue(5))


def test_multihop_routing_via_network():
    sim = Simulator()
    net = Network(sim)
    n0, n1, n2 = (net.add_node(f"n{i}") for i in range(3))
    net.connect(n0, n1, 8e6, 0.001)
    net.connect(n1, n2, 8e6, 0.001)
    net.compute_routes()
    sink = Collector(sim)
    n2.register_endpoint(7, sink)
    sim.schedule(0.0, n0.send, Packet(flow_id=7, src=0, dst=n2.node_id, seq=3))
    sim.run()
    assert sink.seen and sink.seen[0][1] == 3
    assert n1.packets_forwarded == 1


def test_bfs_routes_prefer_fewest_hops():
    sim = Simulator()
    net = Network(sim)
    nodes = [net.add_node(f"n{i}") for i in range(4)]
    # ring: 0-1-2-3-0; from 0 to 2 both ways are 2 hops, but 0->1->2 was
    # discovered first; from 0 to 3 the direct link must be used.
    net.connect(nodes[0], nodes[1], 1e6, 0.001)
    net.connect(nodes[1], nodes[2], 1e6, 0.001)
    net.connect(nodes[2], nodes[3], 1e6, 0.001)
    net.connect(nodes[3], nodes[0], 1e6, 0.001)
    net.compute_routes()
    assert nodes[0].routes[nodes[3].node_id].dst is nodes[3]


def test_class_level_wrappers_see_every_hop(monkeypatch):
    """Seam contract of the packet path.

    ``benchmarks/e2e/tracing.py`` and ``repro.obs.Collector`` count the
    packet path from outside, through wrappers set on the classes before
    a run is built.  Links bind ``dst.receive`` and ``_tx_done`` once at
    construction and ``Link.send`` starts the transmitter itself, so this
    pins what such a wrapper sees: every call, and exactly the counts the
    link, queue and node counters report.
    """
    from collections import Counter

    from repro.experiments.common import run_dumbbell
    from repro.sim.queues.base import QueueDiscipline

    seen = Counter()

    def count(cls, attr, label=None, hit=lambda out: True):
        orig = getattr(cls, attr)
        label = label or f"{cls.__name__}.{attr}"

        def wrapper(self, *args):
            out = orig(self, *args)
            if hit(out):
                seen[label] += 1
            return out

        monkeypatch.setattr(cls, attr, wrapper)

    count(Node, "send")
    count(Node, "receive")
    count(Link, "send")
    count(Link, "_tx_done")
    count(QueueDiscipline, "dequeue", hit=lambda pkt: pkt is not None)
    count(QueueDiscipline, "enqueue", "enqueue.accepted", hit=bool)
    count(QueueDiscipline, "enqueue")
    # a departure the engine takes inline is one `_tx_done` call fewer
    count(Simulator, "advance_if_clear", "inline", hit=bool)

    result = run_dumbbell(
        "sack-droptail", bandwidth=3e6, rtt=0.04, n_fwd=3, n_rev=1,
        buffer_pkts=10, duration=2.5, warmup=1.0, seed=3,
        collector=False, keep_refs=True,
    )
    net = result.extras["dumbbell"].net
    flows = result.extras["fwd_flows"] + result.extras["rev_flows"]
    stats = [link.qdisc.stats for link in net.links]
    assert sum(s.drops for s in stats) > 0  # the refused-enqueue branch ran

    injected = sum(snd.pkts_sent + sink.acks_sent for snd, sink in flows)
    hops = sum(n.packets_forwarded + n.packets_delivered + n.packets_unroutable
               for n in net.nodes)
    assert seen["Node.send"] == injected
    assert seen["Node.send"] + seen["Node.receive"] == hops
    assert seen["Link.send"] == sum(n.packets_forwarded for n in net.nodes)
    assert seen["QueueDiscipline.enqueue"] == sum(s.arrivals for s in stats)
    assert seen["QueueDiscipline.enqueue"] == seen["Link.send"]
    assert seen["enqueue.accepted"] == sum(s.enqueues for s in stats)
    assert seen["QueueDiscipline.dequeue"] == sum(s.departures for s in stats)
    assert seen["Link._tx_done"] + seen["inline"] == sum(
        link.packets_transmitted for link in net.links)
    # in flight at the end: serialized but still propagating
    assert seen["Link._tx_done"] + seen["inline"] >= seen["Node.receive"]
