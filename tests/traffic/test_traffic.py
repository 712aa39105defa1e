"""Unit tests for traffic generators: FTP populations, web sessions, CBR."""

import itertools
import random

import pytest

from repro.obs.collect import Collector
from repro.obs.records import select
from repro.sim.engine import Simulator
from repro.traffic.cbr import CbrSink, CbrSource
from repro.traffic.ftp import start_long_flows
from repro.traffic.web import WebSession, bounded_pareto, start_web_sessions

from ..conftest import make_dumbbell


def test_bounded_pareto_bounds():
    rng = random.Random(1)
    xs = [bounded_pareto(rng, shape=1.2, scale=2.0, cap=50.0) for _ in range(2000)]
    assert all(2.0 <= x <= 50.0 for x in xs)
    # heavy tail: mean well above the scale parameter
    assert sum(xs) / len(xs) > 3.0


def test_bounded_pareto_validation():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        bounded_pareto(rng, shape=0.0, scale=1.0, cap=10.0)
    with pytest.raises(ValueError):
        bounded_pareto(rng, shape=1.0, scale=5.0, cap=1.0)


def test_start_long_flows_random_starts_and_tagging():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=4)
    pairs = [(db.left[i], db.right[i]) for i in range(4)]
    flows = start_long_flows(sim, pairs, itertools.count(), start_window=2.0)
    assert len(flows) == 4
    # tagging is the collector's business: one recorded flow among four
    collector = Collector(trace=True)
    for idx, (sender, _) in enumerate(flows):
        collector.attach_sender(sender, every_ack=idx == 1)
    sim.run(until=10.0)
    assert all(sink.rcv_next > 0 for _, sink in flows)
    assert ({r["flow"] for r in select(collector.records, "rtt_sample")}
            == {flows[1][0].flow_id})


def test_start_long_flows_on_a_fixed_schedule_claims_no_stream():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=3)
    pairs = [(db.left[i], db.right[i]) for i in range(3)]
    flows = start_long_flows(sim, pairs, itertools.count(),
                             start_times=[0.0, 1.0, 2.5])
    assert "ftp-starts" not in sim._stream_labels  # nothing is drawn
    sim.run(until=0.5)
    assert [sender.started for sender, _ in flows] == [True, False, False]
    sim.run(until=3.0)
    assert all(sender.started for sender, _ in flows)


def test_web_session_fetches_pages():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=2)
    session = WebSession(
        sim, server=db.left[0], client=db.right[0],
        flow_ids=itertools.count(), rng=random.Random(3), think_mean=0.2,
    )
    session.start(at=0.0)
    sim.run(until=20.0)
    assert session.pages_fetched > 3
    assert session.objects_fetched >= session.pages_fetched
    assert session.packets_requested > 0


def test_web_session_cleans_up_endpoints():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=2)
    session = WebSession(
        sim, server=db.left[0], client=db.right[0],
        flow_ids=itertools.count(), rng=random.Random(3), think_mean=0.2,
    )
    session.start()
    sim.run(until=20.0)
    # completed object flows must not leak endpoint registrations:
    # at most the in-flight object remains on each node
    assert len(db.left[0].endpoints) <= 1
    assert len(db.right[0].endpoints) <= 1


def test_web_session_stop():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=2)
    session = WebSession(
        sim, server=db.left[0], client=db.right[0],
        flow_ids=itertools.count(), rng=random.Random(3), think_mean=0.1,
    )
    session.start()
    sim.run(until=5.0)
    session.stop()
    fetched = session.objects_fetched
    sim.run(until=10.0)
    assert session.objects_fetched <= fetched + 1  # at most the in-flight one


def test_start_web_sessions_independent_streams():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=2)
    sessions = start_web_sessions(
        sim, 3, server=db.left[0], client=db.right[0],
        flow_ids=itertools.count(), start_window=1.0, think_mean=0.2,
    )
    sim.run(until=15.0)
    fetched = [s.objects_fetched for s in sessions]
    assert all(f > 0 for f in fetched)
    assert len(set(fetched)) > 1  # sessions are not lockstep clones


def test_cbr_rate():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=1, bw=8e6)
    src = CbrSource(sim, db.left[0], dst=db.right[0].node_id, flow_id=99,
                    rate_bps=1e6, pkt_size=1000)
    sink = CbrSink(db.right[0], flow_id=99)
    src.start()
    sim.run(until=8.0)
    rate = sink.bytes_received * 8.0 / 8.0
    assert rate == pytest.approx(1e6, rel=0.02)


def test_cbr_stop():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=1)
    src = CbrSource(sim, db.left[0], dst=db.right[0].node_id, flow_id=99,
                    rate_bps=1e6)
    CbrSink(db.right[0], flow_id=99)
    src.start()
    sim.run(until=1.0)
    src.stop()
    sent = src.pkts_sent
    sim.run(until=2.0)
    assert src.pkts_sent == sent


def test_cbr_validation():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=1)
    with pytest.raises(ValueError):
        CbrSource(sim, db.left[0], dst=1, flow_id=9, rate_bps=0.0)


@pytest.mark.parametrize("pkt_size", [-1, 0, 1.5, float("nan"), True, "1000"],
                         ids=repr)
def test_cbr_refuses_a_packet_size_that_is_not_a_positive_int(pkt_size):
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=1)
    with pytest.raises(ValueError, match="pkt_size"):
        CbrSource(sim, db.left[0], dst=1, flow_id=9, rate_bps=1e6,
                  pkt_size=pkt_size)
