"""Tests for the Section 7 extensions: OWD signal, adaptive pro-activeness."""

import pytest

from repro.core.config import PertConfig
from repro.core.pert import PertSender
from repro.core.pert_owd import PertOwdSender
from repro.sim.engine import Simulator
from repro.sim.queues import DropTailQueue
from repro.sim.topology import Dumbbell
from repro.tcp.base import connect_flow
from repro.traffic.cbr import CbrSink, CbrSource

from ..conftest import drop_log, drop_times, make_dumbbell, make_flow


# ----------------------------------------------------------------------
# one-way-delay PERT
# ----------------------------------------------------------------------
def run_with_reverse_congestion(sender_cls):
    """One forward flow plus a CBR flood of the *reverse* bottleneck."""
    sim = Simulator(seed=5)
    db = Dumbbell(
        sim, n_left=2, n_right=2, bottleneck_bw=8e6, bottleneck_delay=0.01,
        qdisc_fwd=lambda: DropTailQueue(100),
        qdisc_rev=lambda: DropTailQueue(100),
    )
    # cap the window below the path BDP so the forward queue never
    # builds: any congestion signal must come from the reverse path
    sender, sink = connect_flow(sim, db.left[0], db.right[0], flow_id=1,
                                sender_cls=sender_cls, max_cwnd=15.0)
    sender.start()
    # near-saturating reverse-direction CBR: inflates ACK-path delay only
    cbr = CbrSource(sim, db.right[1], dst=db.left[1].node_id, flow_id=2,
                    rate_bps=7.9e6)
    CbrSink(db.left[1], flow_id=2)
    cbr.start(at=3.0)
    sim.run(until=20.0)
    return sender, sink, db


def test_owd_ack_echo_present():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, _ = make_flow(sim, db, sender_cls=PertOwdSender, tagged=True)
    sender.start(npackets=50)
    sim.run(until=10.0)
    assert sender.signal.samples > 0
    # the one-way signal is about half the RTT on a symmetric path
    assert sender.signal.min_rtt < sender.min_rtt * 0.75


def test_rtt_pert_responds_to_reverse_congestion_owd_does_not():
    """Paper Sec. 7: RTT-based PERT reacts to reverse congestion; the
    one-way-delay variant stays blind to it."""
    rtt_sender, _, _ = run_with_reverse_congestion(PertSender)
    owd_sender, _, _ = run_with_reverse_congestion(PertOwdSender)
    assert rtt_sender.early_responses > 0
    assert owd_sender.early_responses < max(1, rtt_sender.early_responses // 5)


def test_owd_pert_still_controls_forward_queue():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=4, bw=8e6, buffer_pkts=60)
    log = drop_log(db.bottleneck_queue)
    for i in range(4):
        s, _ = make_flow(sim, db, idx=i, sender_cls=PertOwdSender)
        s.start()
    samples = []

    def sample():
        samples.append(len(db.bottleneck_queue))
        sim.schedule(0.05, sample)

    sim.schedule(5.0, sample)
    sim.run(until=20.0)
    assert sum(samples) / len(samples) < 30
    # steady state is lossless
    assert not [t for t in drop_times(log) if t >= 5.0]


# ----------------------------------------------------------------------
# adaptive pro-activeness knobs
# ----------------------------------------------------------------------
class FakeAck:
    owd_echo = -1.0


def make_saturated_pert(sim, db, **config_kwargs):
    cfg = PertConfig(**config_kwargs)
    sender, _ = make_flow(sim, db, sender_cls=PertSender, config=cfg)
    sender.signal.update(0.02)  # min rtt baseline
    return sender


def test_escalating_interval_doubles_spacing():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s = make_saturated_pert(sim, db, escalating_interval=True)
    assert s._interval_scale == 1.0
    s._early_response(1.0)
    assert s._interval_scale == 2.0
    s._early_response(1.0)
    assert s._interval_scale == 4.0
    # signal returning below t_min resets the escalation
    s.on_ack(FakeAck(), rtt_sample=0.02)
    assert s._interval_scale == 1.0


def test_escalating_interval_capped():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s = make_saturated_pert(sim, db, escalating_interval=True)
    for _ in range(10):
        s._early_response(1.0)
    assert s._interval_scale == 16.0


def test_deterministic_threshold_fires_without_coin_flip():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s = make_saturated_pert(sim, db, deterministic_threshold=0.75)
    s.rng.random = lambda: 0.999  # coin flip would always refuse
    s.on_ack(FakeAck(), rtt_sample=2.0)  # probability 1 >= threshold
    assert s.early_responses == 1


def test_deterministic_threshold_validation():
    with pytest.raises(ValueError):
        PertConfig(deterministic_threshold=0.0).validate()
    with pytest.raises(ValueError):
        PertConfig(deterministic_threshold=1.5).validate()
    PertConfig(deterministic_threshold=0.75).validate()


def test_aggressive_increase_grows_faster_without_congestion():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s = make_saturated_pert(sim, db, aggressive_increase=1.0)
    s.ssthresh = 5.0
    s.cwnd = 10.0
    # uncongested ACK: normal hook adds the compensation growth
    s.on_ack(FakeAck(), rtt_sample=0.02)
    assert s.cwnd == pytest.approx(10.0 + 1.0 / 10.0)


def test_aggressive_increase_validation():
    with pytest.raises(ValueError):
        PertConfig(aggressive_increase=-0.1).validate()
