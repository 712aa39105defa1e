"""Unit tests for the PERT/PI sender."""

import pytest

from repro.core.config import PertPiConfig
from repro.core.pert_pi import PertPiSender
from repro.sim.engine import Simulator

from ..conftest import make_dumbbell, make_flow


def test_config_validation():
    with pytest.raises(ValueError):
        PertPiConfig(k=0.0).validate()
    with pytest.raises(ValueError):
        PertPiConfig(target_delay=-1.0).validate()
    PertPiConfig().validate()


def test_controller_state_advances_on_acks():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s, _ = make_flow(sim, db, sender_cls=PertPiSender,
                     config=PertPiConfig(k=1.0, m=0.5, target_delay=0.0))

    class FakeAck:
        pass

    s.on_ack(FakeAck(), rtt_sample=0.05)  # establishes min_rtt
    assert s.controller.p == 0.0
    for _ in range(5):
        s.on_ack(FakeAck(), rtt_sample=0.2)  # sustained queuing delay
    assert s.controller.p > 0.0


def test_early_response_uses_35_percent_decrease():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s, _ = make_flow(sim, db, sender_cls=PertPiSender)
    s.cwnd = 10.0
    s._early_response(1.0)
    assert s.cwnd == pytest.approx(6.5)


def test_pert_pi_controls_queue_end_to_end():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim, n=4, bw=8e6, buffer_pkts=100)
    senders = []
    for i in range(4):
        s, _ = make_flow(sim, db, idx=i, sender_cls=PertPiSender,
                         config=PertPiConfig(k=2.0, m=0.05, target_delay=0.003,
                                             delta=0.004))
        s.start(at=0.1 * i)
        senders.append(s)
    samples = []

    def sample():
        samples.append(len(db.bottleneck_queue))
        sim.schedule(0.05, sample)

    sim.schedule(8.0, sample)
    sim.run(until=25.0)
    mean_q = sum(samples) / len(samples)
    assert mean_q < 50  # queue held well below the buffer
    assert sum(s.early_responses for s in senders) > 0
    assert db.bottleneck_queue.stats.drops == 0


def test_no_response_in_recovery():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    s, _ = make_flow(sim, db, sender_cls=PertPiSender)
    s.in_recovery = True
    s.controller.p = 1.0

    class FakeAck:
        pass

    before = s.cwnd
    s.on_ack(FakeAck(), rtt_sample=0.5)
    assert s.cwnd == before
