"""Tests for the REM emulation (queue, response law, sender)."""

import random

import pytest

from repro.core.config import PertRemConfig
from repro.core.pert_rem import PertRemSender
from repro.core.response import RemResponse
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import RemQueue
from repro.tcp.sack import SackSender

from ..conftest import drop_log, drop_times, make_dumbbell, make_flow


class TestRemResponse:
    def test_price_accumulates_above_target(self):
        rem = RemResponse(gamma=1.0, alpha=1.0, phi=2.0, target_delay=0.0)
        p1 = rem.update(0.01)
        p2 = rem.update(0.01)
        assert 0 < p1 < p2 < 1

    def test_price_decays_below_target(self):
        rem = RemResponse(gamma=1.0, alpha=1.0, phi=2.0, target_delay=0.05)
        rem.price = 5.0
        rem._prev = 0.0
        for _ in range(10):
            rem.update(0.0)
        assert rem.price < 5.0

    def test_price_never_negative(self):
        rem = RemResponse(gamma=10.0, alpha=1.0, phi=2.0, target_delay=0.1)
        for _ in range(50):
            rem.update(0.0)
        assert rem.price == 0.0
        assert rem.probability() == 0.0

    def test_probability_bounds(self):
        rem = RemResponse(phi=2.0)
        rem.price = 1000.0
        assert rem.probability() == pytest.approx(1.0)
        rem.price = 0.0
        assert rem.probability() == 0.0

    def test_exponential_law(self):
        rem = RemResponse(phi=2.0)
        rem.price = 1.0
        assert rem.probability() == pytest.approx(0.5)

    def test_reset(self):
        rem = RemResponse()
        rem.update(1.0)
        rem.reset()
        assert rem.price == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RemResponse(phi=1.0)
        with pytest.raises(ValueError):
            RemResponse(gamma=0.0)
        with pytest.raises(ValueError):
            RemResponse(target_delay=-1.0)


class TestRemQueue:
    def pkt(self, seq=0, ect=False):
        return Packet(flow_id=1, src=0, dst=1, seq=seq, ect=ect)

    def test_price_rises_above_reference(self):
        q = RemQueue(100, q_ref=2.0, gamma=0.1, rng=random.Random(1))
        for i in range(20):
            q.enqueue(self.pkt(i), 0.0)
        for _ in range(5):
            q.update()
        assert q.controller.price > 0 and q.mark_probability() > 0

    def test_price_decays_when_light(self):
        q = RemQueue(100, q_ref=50.0, gamma=0.1, rng=random.Random(1))
        q.controller.price = 10.0
        for _ in range(50):
            q.update()
        assert q.controller.price < 10.0

    def test_marks_ect_drops_others(self):
        q = RemQueue(100, q_ref=0.0, rng=random.Random(1))
        q.controller.price = 1e9  # probability ~ 1
        p = self.pkt(0, ect=True)
        assert q.enqueue(p, 0.0)
        assert p.ce
        assert not q.enqueue(self.pkt(1, ect=False), 0.0)

    def test_self_scheduling(self):
        sim = Simulator()
        q = RemQueue(100, q_ref=0.0, gamma=0.05, sample_hz=100.0, sim=sim,
                     rng=random.Random(1))
        for i in range(30):
            q.enqueue(self.pkt(i), 0.0)
        sim.run(until=0.5)
        assert q.controller.price > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RemQueue(10, phi=0.9)
        with pytest.raises(ValueError):
            RemQueue(10, gamma=0.0)
        # a bad tick rate or gain fails here, naming the parameter, not at
        # the first tick inside the event loop
        for bad in (dict(sample_hz=0), dict(sample_hz=-5), dict(alpha=-1)):
            (param,) = bad
            with pytest.raises(ValueError, match=param):
                RemQueue(10, **bad)


class TestPertRemSender:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PertRemConfig(phi=1.0).validate()
        with pytest.raises(ValueError):
            PertRemConfig(early_decrease=0.0).validate()
        PertRemConfig().validate()

    def test_controls_queue_like_pert(self):
        sim = Simulator(seed=1)
        db = make_dumbbell(sim, n=4, bw=8e6, buffer_pkts=60)
        log = drop_log(db.bottleneck_queue)
        senders = []
        for i in range(4):
            s, _ = make_flow(sim, db, idx=i, sender_cls=PertRemSender)
            s.start(at=0.1 * i)
            senders.append(s)
        samples = []

        def sample():
            samples.append(len(db.bottleneck_queue))
            sim.schedule(0.05, sample)

        sim.schedule(5.0, sample)
        sim.run(until=25.0)
        mean_q = sum(samples) / len(samples)
        assert mean_q < 30  # held well below the 60-packet buffer
        assert not [t for t in drop_times(log) if t >= 5.0]
        assert sum(s.early_responses for s in senders) > 0

    def test_keeps_queue_below_plain_sack(self):
        def run(cls):
            sim = Simulator(seed=2)
            db = make_dumbbell(sim, n=4, bw=8e6, buffer_pkts=60)
            for i in range(4):
                s, _ = make_flow(sim, db, idx=i, sender_cls=cls)
                s.start()
            samples = []

            def sample():
                samples.append(len(db.bottleneck_queue))
                sim.schedule(0.05, sample)

            sim.schedule(5.0, sample)
            sim.run(until=20.0)
            return sum(samples) / len(samples)

        assert run(PertRemSender) < 0.6 * run(SackSender)

    def test_no_response_in_recovery(self):
        sim = Simulator(seed=1)
        db = make_dumbbell(sim)
        s, _ = make_flow(sim, db, sender_cls=PertRemSender)
        s.in_recovery = True
        s.controller.price = 1e9

        class FakeAck:
            pass

        before = s.cwnd
        s.on_ack(FakeAck(), rtt_sample=0.5)
        assert s.cwnd == before
