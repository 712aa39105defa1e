"""Unit tests for the TCP sender: transfer, windows, growth, RTT."""

import pytest

from repro.obs.collect import Collector
from repro.obs.records import select
from repro.sim.engine import Simulator
from repro.tcp.base import TcpSender

from ..conftest import make_dumbbell, make_flow, rtt_trace


def run_transfer(npackets=50, bw=8e6, buffer_pkts=100, **kwargs):
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, bw=bw, buffer_pkts=buffer_pkts)
    sender, sink = make_flow(sim, db, **kwargs)
    done = []
    sender.on_complete = lambda s: done.append(sim.now)
    sender.start(npackets=npackets)
    sim.run(until=60.0)
    return sim, sender, sink, done


@pytest.mark.parametrize("pkt_size", [-1, 0, 1.5, float("nan"), True, "1000"],
                         ids=repr)
def test_a_packet_size_that_is_not_a_positive_int_is_refused_by_name(pkt_size):
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    with pytest.raises(ValueError, match="pkt_size"):
        make_flow(sim, db, pkt_size=pkt_size)


def test_finite_transfer_completes():
    sim, sender, sink, done = run_transfer(npackets=50)
    assert sender.done
    assert len(done) == 1
    assert sink.rcv_next == 50


def test_all_data_delivered_in_order():
    sim, sender, sink, done = run_transfer(npackets=200)
    assert sink.rcv_next == 200
    assert sink.out_of_order == set()


def test_infinite_flow_keeps_sending():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, sink = make_flow(sim, db)
    sender.start()
    sim.run(until=2.0)
    assert not sender.done
    assert sink.rcv_next > 100


def test_slow_start_doubles_window():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, bw=80e6, buffer_pkts=4000)
    sender, _ = make_flow(sim, db, initial_cwnd=2.0)
    sender.start()
    # After k RTTs of slow start cwnd ~ 2^(k+1); with RTT ~22 ms
    sim.run(until=0.30)
    assert sender.cwnd > 100  # exponential growth clearly happened
    assert sender.timeouts == 0


def test_congestion_avoidance_linear_growth():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, bw=80e6, buffer_pkts=4000)
    sender, _ = make_flow(sim, db, initial_cwnd=10.0)
    sender.ssthresh = 10.0  # start directly in congestion avoidance
    sender.start()
    sim.run(until=1.0)
    rtt = sender.srtt
    # ~1 packet per RTT: after 1 s expect roughly 10 + 1/rtt, not doubling
    expected = 10.0 + 1.0 / rtt
    assert sender.cwnd == pytest.approx(expected, rel=0.3)


def test_rtt_estimation_close_to_path_rtt():
    sim, sender, sink, _ = run_transfer(npackets=100)
    # path: 2*(1 ms access + 10 ms bottleneck + 1 ms access) = 24 ms min
    assert sender.min_rtt == pytest.approx(0.024, rel=0.2)
    assert sender.srtt is not None and sender.srtt >= sender.min_rtt * 0.99


def test_rtt_trace_recorded_only_when_asked():
    sim, sender, _, _ = run_transfer(npackets=30, tagged=True)
    assert len(rtt_trace(sender)) > 0
    t, rtt, cwnd = rtt_trace(sender)[0]
    assert rtt > 0 and cwnd >= 1
    # an observed but untagged flow keeps no per-ACK samples, and an
    # unobserved one has nowhere to keep any
    collector = Collector(trace=True)
    sim2 = Simulator(seed=1)
    sender2, _ = make_flow(sim2, make_dumbbell(sim2))
    collector.attach_sender(sender2)
    sender2.start(npackets=30)
    sim2.run(until=60.0)
    assert sender2.done and not select(collector.records, "rtt_sample")
    sim3, sender3, _, _ = run_transfer(npackets=30)
    assert sender3.obs is None


def test_max_cwnd_respected():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, bw=80e6, buffer_pkts=1000)
    sender, _ = make_flow(sim, db, max_cwnd=8.0)
    sender.start()
    sim.run(until=2.0)
    assert sender.cwnd <= 8.0
    assert sender.pipe <= 8


def test_stop_ceases_new_data():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, sink = make_flow(sim, db)
    sender.start()
    sim.run(until=1.0)
    sender.stop()
    sent_at_stop = sender.next_seq
    sim.run(until=2.0)
    assert sender.next_seq == sent_at_stop


def test_delayed_start():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, sink = make_flow(sim, db)
    sender.start(at=1.0, npackets=10)
    sim.run(until=0.9)
    assert sender.pkts_sent == 0
    sim.run(until=5.0)
    assert sender.done


def test_pipe_never_negative():
    # Note pipe may transiently exceed cwnd right after a reduction (the
    # old flight is still draining); it must never go negative, and the
    # scoreboard sets must stay inside the window.
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, buffer_pkts=20)
    sender, _ = make_flow(sim, db)
    sender.start()
    checks = []

    def probe():
        ok = sender.pipe >= 0
        ok &= all(sender.cum_ack <= s < sender.high_water for s in sender.sacked)
        ok &= all(sender.cum_ack <= s < sender.high_water for s in sender.lost)
        checks.append(ok)
        sim.schedule(0.05, probe)

    sim.schedule(0.1, probe)
    sim.run(until=5.0)
    assert checks and all(checks)
