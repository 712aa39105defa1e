"""Unit and behavioural tests for the PERT sender (the core contribution)."""

import pytest

from repro.core.config import PertConfig, PertPiConfig
from repro.core.pert import PertSender
from repro.sim.engine import Simulator
from repro.tcp.sack import SackSender

from ..conftest import (drop_log, drop_times, make_dumbbell, make_flow,
                        signal_trace)


def test_config_validation():
    with pytest.raises(ValueError):
        PertConfig(t_min=0.02, t_max=0.01).validate()
    with pytest.raises(ValueError):
        PertConfig(p_max=0.0).validate()
    with pytest.raises(ValueError):
        PertConfig(early_decrease=1.0).validate()
    with pytest.raises(ValueError):
        PertConfig(srtt_weight=1.0).validate()
    PertConfig().validate()  # paper defaults are valid


@pytest.mark.parametrize("config_cls", [PertConfig, PertPiConfig])
@pytest.mark.parametrize("bad", [
    dict(min_response_interval_rtts=-1),  # would switch off "once per RTT"
    dict(srtt_weight=2.0),
    dict(early_decrease=0.0),
])
def test_sender_fields_are_validated_whatever_the_law(config_cls, bad):
    (field,) = bad
    with pytest.raises(ValueError, match=field):
        config_cls(**bad).validate()
    config_cls().validate()


@pytest.mark.parametrize("config, field", [
    (PertPiConfig(delta=-1.0), "delta"),
    (PertPiConfig(target_delay=-1.0), "target_delay"),
])
def test_validate_runs_the_laws_own_checks(config, field):
    with pytest.raises(ValueError, match=field):
        config.validate()


def test_paper_default_parameters():
    cfg = PertConfig()
    assert cfg.t_min == pytest.approx(0.005)
    assert cfg.t_max == pytest.approx(0.010)
    assert cfg.p_max == pytest.approx(0.05)
    assert cfg.srtt_weight == pytest.approx(0.99)
    assert cfg.early_decrease == pytest.approx(0.35)


def test_response_probability_zero_at_empty_queue():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, _ = make_flow(sim, db, sender_cls=PertSender)
    sender.signal.update(0.024)  # min == srtt -> zero queuing delay
    assert sender.curve.probability(sender.signal.queuing_delay) == 0.0


def test_early_response_reduces_by_35_percent():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, _ = make_flow(sim, db, sender_cls=PertSender)
    sender.cwnd = 100.0
    sender._early_response(1.0)
    assert sender.cwnd == pytest.approx(65.0)
    assert sender.early_responses == 1


def test_early_response_floor_at_two_packets():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, _ = make_flow(sim, db, sender_cls=PertSender)
    sender.cwnd = 2.0
    sender._early_response(1.0)
    assert sender.cwnd == 2.0


def test_no_early_response_during_loss_recovery():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, _ = make_flow(sim, db, sender_cls=PertSender)
    sender.in_recovery = True
    sender.signal.update(0.024)
    sender.signal.update(1.0)  # huge queuing delay -> probability 1

    class FakeAck:
        pass

    before = sender.cwnd
    sender.on_ack(FakeAck(), rtt_sample=1.0)
    assert sender.cwnd == before
    assert sender.early_responses == 0


def test_at_most_one_response_per_rtt():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, _ = make_flow(sim, db, sender_cls=PertSender)
    sender.signal.update(0.02)

    class FakeAck:
        pass

    # saturate the signal so probability == 1 on every ACK
    for _ in range(200):
        sender.on_ack(FakeAck(), rtt_sample=2.0)
    # sim.now never advances, so only the first response can fire
    assert sender.early_responses == 1


def test_pert_keeps_queue_low_vs_sack():
    def run(cls):
        sim = Simulator(seed=1)
        db = make_dumbbell(sim, n=4, bw=8e6, buffer_pkts=60)
        log = drop_log(db.bottleneck_queue)
        senders = []
        for i in range(4):
            s, _ = make_flow(sim, db, idx=i, sender_cls=cls)
            s.start(at=0.1 * i)
            senders.append(s)
        samples = []

        def sample():
            samples.append(len(db.bottleneck_queue))
            sim.schedule(0.05, sample)

        sim.schedule(5.0, sample)
        sim.run(until=20.0)
        # measure losses in steady state only (slow-start overshoot is
        # loss-driven for every TCP, PERT included)
        return (sum(samples) / len(samples),
                sum(t >= 5.0 for t in drop_times(log)), senders)

    q_sack, drops_sack, _ = run(SackSender)
    q_pert, drops_pert, pert_senders = run(PertSender)
    assert q_pert < q_sack * 0.6
    assert drops_pert == 0 and drops_sack > 0
    assert sum(s.early_responses for s in pert_senders) > 0


def test_pert_utilization_stays_high():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=4, bw=8e6, buffer_pkts=60)
    for i in range(4):
        s, _ = make_flow(sim, db, idx=i, sender_cls=PertSender)
        s.start()
    bytes0 = {}
    sim.run(until=5.0)
    bytes0 = db.fwd.bytes_transmitted
    sim.run(until=20.0)
    util = (db.fwd.bytes_transmitted - bytes0) * 8.0 / (8e6 * 15.0)
    assert util > 0.85


def test_pert_falls_back_to_loss_recovery():
    """With thresholds so high the curve never fires, PERT behaves as SACK."""
    sim = Simulator(seed=1)
    cfg = PertConfig(t_min=10.0, t_max=20.0)
    db = make_dumbbell(sim, bw=8e6, buffer_pkts=25)
    s, sink = make_flow(sim, db, sender_cls=PertSender, config=cfg)
    s.start()
    sim.run(until=15.0)
    assert s.early_responses == 0
    assert s.fast_recoveries > 0  # losses handled by standard recovery
    assert sink.rcv_next > 1000


def test_signal_trace_recording():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s, _ = make_flow(sim, db, sender_cls=PertSender, tagged=True)
    s.start(npackets=50)
    sim.run(until=10.0)
    assert len(signal_trace(s)) == s.signal.samples > 0  # one per sample
    t, srtt, prob = signal_trace(s)[-1]
    assert srtt > 0 and 0.0 <= prob <= 1.0


def test_non_gentle_config():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s, _ = make_flow(sim, db, sender_cls=PertSender,
                     config=PertConfig(gentle=False))
    s.signal.update(0.01)
    s.signal.min_rtt = 0.01
    s.signal.value = 0.01 + 0.011  # queuing delay just above t_max
    assert s.curve.probability(s.signal.queuing_delay) == 1.0
