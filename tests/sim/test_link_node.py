"""Unit tests for links, nodes and routing."""

import math

import pytest

from repro.experiments.scenarios import SCHEMES, scheme_at
from repro.obs.collect import Collector as TraceCollector
from repro.obs.records import select
from repro.sim.engine import Simulator
from repro.sim.jitter import JitterLink
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


@pytest.mark.parametrize("cls, field, value", [
    (Link, "bandwidth", math.nan),
    (Link, "bandwidth", math.inf),
    (Link, "delay", math.nan),
    (Link, "delay", math.inf),
    (JitterLink, "bandwidth", math.nan),
    (JitterLink, "delay", math.nan),
    (JitterLink, "jitter", math.nan),
    (JitterLink, "jitter", math.inf),
])
def test_non_finite_link_parameters_are_refused_by_name(cls, field, value):
    """A non-finite value used to pass construction and stop the run at
    the first packet with an engine error that named no link field."""
    sim = Simulator()
    a, b = Node(sim, 0), Node(sim, 1)
    kwargs = dict(bandwidth=1e6, delay=0.01, qdisc=DropTailQueue(5))
    if cls is JitterLink:
        kwargs["jitter"] = 0.001
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        cls(sim, a, b, **kwargs)


@pytest.mark.parametrize("cls", [Link, JitterLink])
def test_an_attached_link_instrument_samples_every_link_class(cls):
    sim = Simulator()
    a, b = Node(sim, 0, "a"), Node(sim, 1, "b")
    link = cls(sim, a, b, bandwidth=8e6, delay=0.01, qdisc=DropTailQueue(10))
    a.add_route(1, link)
    b.register_endpoint(5, Collector(sim))
    col = TraceCollector(trace=True)
    col.attach_link(link, "l")
    for i in range(5):
        sim.schedule(0.0, a.send, Packet(flow_id=5, src=0, dst=1, seq=i))
    sim.run()
    samples = select(col.records, "link_sample", link="l")
    assert [(r["pkts"], r["bytes"]) for r in samples] == [(1, 1000)]


def test_multihop_routing_via_network():
    sim = Simulator()
    net = Network(sim)
    n0, n1, n2 = (net.add_node(f"n{i}") for i in range(3))
    net.connect(n0, n1, 8e6, 0.001)
    l12, _ = net.connect(n1, n2, 8e6, 0.001)
    net.compute_routes()
    sink = Collector(sim)
    n2.register_endpoint(7, sink)
    sim.schedule(0.0, n0.send, Packet(flow_id=7, src=0, dst=n2.node_id, seq=3))
    sim.run()
    assert sink.seen and sink.seen[0][1] == 3
    assert l12.packets_transmitted == 1


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


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_class_level_wrappers_see_every_hop(scheme, monkeypatch):
    """Seam contract of the packet path.

    ``benchmarks/e2e/tracing.py`` and ``repro.obs.Collector`` count the
    packet path from outside, through wrappers set on the classes before
    a run is built.  Links bind ``dst.receive`` and ``_tx_done`` once at
    construction and ``Link.send`` starts the transmitter itself, so this
    pins what such a wrapper sees: every call, and exactly the counts the
    queue and link derive from their state (a packet is transmitted when
    it has left the queue and the wire), for every scheme's queue and a
    ``JitterLink`` hop, mid-run with packets on the wire and at the end.
    """
    from collections import Counter

    from repro.sim.queues.base import QueueDiscipline
    from repro.sim.topology import Dumbbell
    from repro.tcp.base import TcpSender, TcpSink, connect_flow

    seen = Counter()

    def count(cls, attr, label, moved=lambda args, out: args[0]):
        """Count the calls of ``cls.attr`` that move a packet, and its bytes."""
        orig = getattr(cls, attr)

        def wrapper(self, *args):
            out = orig(self, *args)
            pkt = moved(args, out)
            if pkt is not None:
                seen[label] += 1
                seen[label + ".bytes"] += pkt.size
            return out

        monkeypatch.setattr(cls, attr, wrapper)

    count(Node, "send", "injected")
    count(Node, "receive", "received")
    count(Link, "send", "forwarded")
    count(TcpSender, "receive", "delivered")
    count(TcpSink, "receive", "delivered")
    count(QueueDiscipline, "enqueue", "arrived")
    count(QueueDiscipline, "enqueue", "enqueued",
          lambda args, accepted: args[0] if accepted else None)
    count(QueueDiscipline, "dequeue", "departed", lambda args, pkt: pkt)
    count(Link, "_tx_done", "transmitted")
    count(JitterLink, "_tx_done", "transmitted")

    bw, n_flows, buffer_pkts = 3e6, 3, 10
    sim = Simulator(seed=3)
    qdisc, flow_kw = scheme_at(scheme, bw, 1000, n_flows, 0.04)
    db = Dumbbell(sim, n_flows, n_flows, bw, 0.01,
                  lambda: qdisc(sim, buffer_pkts),
                  lambda: qdisc(sim, buffer_pkts))
    # the first host's uplink becomes a second, jittered bottleneck
    host, links = db.left[0], db.net.links
    uplink = host.routes[db.r1.node_id]
    jitter = JitterLink(sim, host, db.r1, bw / 3, uplink.delay,
                        DropTailQueue(buffer_pkts), jitter=0.02)
    links[links.index(uplink)] = jitter
    for dst in host.routes:
        host.routes[dst] = jitter
    flows = [connect_flow(sim, db.left[i], db.right[i], flow_id=i, **flow_kw)
             for i in range(n_flows)]
    flows.append(connect_flow(sim, db.right[0], host, flow_id=n_flows,
                              **flow_kw))
    for i, (sender, _) in enumerate(flows):
        sender.start(at=0.05 * i, npackets=300)

    def check():
        """Compare the wrappers' counts with the counters; return the
        number of packets on the wire."""
        stats = [link.qdisc.stats for link in links]
        on_wire = sum(link._tx is not None for link in links)
        assert seen["injected"] == sum(
            sender.pkts_sent + sink.acks_sent for sender, sink in flows)
        assert seen["injected"] + seen["received"] == (
            seen["forwarded"] + seen["delivered"]
            + sum(node.packets_unroutable for node in db.net.nodes))
        assert seen["arrived"] == seen["forwarded"]
        for label, counter in [("arrived", "arrivals"),
                               ("enqueued", "enqueues"),
                               ("enqueued.bytes", "bytes_in"),
                               ("departed", "departures"),
                               ("departed.bytes", "bytes_out")]:
            assert seen[label] == sum(getattr(s, counter) for s in stats)
        assert seen["transmitted"] == sum(
            link.packets_transmitted for link in links)
        assert seen["transmitted.bytes"] == sum(
            link.bytes_transmitted for link in links)
        assert seen["departed"] - seen["transmitted"] == on_wire
        return on_wire

    sim.run(until=2.0)
    assert check() > 0
    sim.run(until=30.0)
    assert check() == 0
    assert all(sink.rcv_next == 300 for _, sink in flows)
    assert sum(s.drops for s in (link.qdisc.stats for link in links)) > 0
    assert jitter.reorder_opportunities > 0
