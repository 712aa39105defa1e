"""Does PERT's delay signal actually track the bottleneck queue?

The scheme's premise is that srtt − min RTT estimates the path's queuing
delay; these tests close the loop by comparing the estimate against the
queue the simulator actually holds.
"""

import pytest

from repro.core.pert import PertSender
from repro.obs.collect import Collector
from repro.obs.records import select
from repro.sim.engine import Simulator
from repro.sim.monitors import nearest_sample
from repro.tcp.sack import SackSender

from ..conftest import make_dumbbell, make_flow, signal_trace

BW = 8e6
PKT_TIME = 1000 * 8.0 / BW  # seconds per packet at the bottleneck


def run_traced(sender_cls, buffer_pkts=80, until=25.0):
    """One tagged PERT flow against two of *sender_cls*; returns the
    trace (the bottleneck queue sampled every 20 ms) and nothing else."""
    sim = Simulator(seed=8)
    db = make_dumbbell(sim, n=3, bw=BW, buffer_pkts=buffer_pkts)
    collector = Collector(trace=True, sample_interval=0.02,
                          trace_packet_events=False)
    collector.attach_queue(db.bottleneck_queue, "bottleneck", bandwidth=BW)
    for i in range(3):
        s, _ = make_flow(sim, db, idx=i,
                         sender_cls=PertSender if i == 0 else sender_cls)
        collector.attach_sender(s, every_ack=i == 0)
        s.start(at=0.2 * i)
    sim.run(until=until)
    return collector.records


def test_signal_tracks_actual_queuing_delay():
    records = run_traced(SackSender)
    # join the end host's estimate with the true queue of the same trace
    # (its drain time at the nearest sample), over the steady half
    queue = select(records, "queue_sample", queue="bottleneck")
    times = [r["t"] for r in queue]
    delays = [r["delay"] for r in queue]
    assert max(b - a for a, b in zip(times, times[1:])) < 0.05
    signals = [r for r in select(records, "signal") if r["t"] >= 10.0]
    assert {r["flow"] for r in signals} == {1000}  # the one PERT flow
    errs = [abs(r["signal"] - nearest_sample(times, delays, r["t"]))
            for r in signals]
    assert errs
    mean_err = sum(errs) / len(errs)
    # the estimate is a heavily smoothed, RTT-delayed observation of a
    # moving target; agreement within ~20 ms at this scale means it is
    # genuinely tracking the queue rather than noise
    assert mean_err < 0.020


def test_probability_zero_on_idle_path_positive_under_load():
    """srtt_0.99 smooths over instantaneous wiggles by design; what must
    hold is the *sustained* contrast: ~zero response probability on an
    uncongested path, clearly positive probability under standing load."""

    def run(max_cwnd):
        sim = Simulator(seed=8)
        db = make_dumbbell(sim, n=3, bw=BW, buffer_pkts=80)
        tagged = None
        for i in range(3):
            s, _ = make_flow(sim, db, idx=i, sender_cls=PertSender,
                             max_cwnd=max_cwnd, tagged=i == 0)
            if i == 0:
                tagged = s
            s.start(at=0.2 * i)
        sim.run(until=20.0)
        probs = [p for t, _s, p in signal_trace(tagged) if t > 10.0]
        return sum(probs) / len(probs)

    idle_prob = run(max_cwnd=5.0)  # 3 flows x 5 pkts << BDP: no queue
    loaded_prob = run(max_cwnd=1e9)
    assert idle_prob < 0.005
    assert loaded_prob > 10 * max(idle_prob, 1e-4)
