"""Additional queue-discipline coverage: RED internals, PI behaviour
under load, and cross-discipline comparisons."""

import random

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, PiQueue, RedQueue


def pkt(seq=0, ect=True, flow=1):
    return Packet(flow_id=flow, src=0, dst=1, seq=seq, ect=ect)


class TestRedCountMechanism:
    """Floyd & Jacobson's inter-mark uniformization (the `count` state)."""

    def make(self, max_p=0.1):
        return RedQueue(1000, min_th=5, max_th=15, max_p=max_p, w_q=1.0,
                        gentle=False, ecn=True, rng=random.Random(7))

    def test_count_increases_effective_probability(self):
        # with avg pinned mid-band, successive survivals raise p_a; a mark
        # must occur within ~1/p_b packets (here 20)
        q = self.make(max_p=0.5)
        # preload the queue so avg sits at 10 (p_b = 0.25)
        for i in range(10):
            q.enqueue(pkt(i), 0.0)
        q.avg = 10.0
        marks_gap = 0
        max_gap = 0
        for i in range(200):
            p = pkt(100 + i)
            q.enqueue(p, 0.0)
            q.avg = 10.0  # hold the average fixed for the test
            if p.ce:
                max_gap = max(max_gap, marks_gap)
                marks_gap = 0
            else:
                marks_gap += 1
        # uniformized marking cannot leave arbitrarily long gaps
        assert max_gap <= 2 * int(1 / 0.25)

    def test_count_resets_below_min_th(self):
        q = self.make()
        q.avg = 10.0
        q._count = 5
        q.avg = 1.0
        q.admit(pkt(0), 0.0)
        assert q._count == 0


class TestPiUnderLoad:
    def test_pi_holds_queue_near_reference_closed_loop(self):
        """Crude closed loop: arrivals thinned by the marking probability
        must settle the queue near q_ref."""
        sim = Simulator(seed=3)
        q = PiQueue(500, q_ref=50.0, a=5e-4, b=4.8e-4, sample_hz=100.0,
                    sim=sim, rng=random.Random(3))
        rng = random.Random(5)
        seq = [0]

        def offer():
            # offered load responds inversely to p (TCP-ish backoff)
            n = max(1, int(3 * (1.0 - q.controller.p)))
            for _ in range(n):
                q.enqueue(pkt(seq[0]), sim.now)
                seq[0] += 1
            q.dequeue(sim.now)
            q.dequeue(sim.now)
            sim.schedule(0.001, offer)

        sim.schedule(0.0, offer)
        sim.run(until=20.0)
        assert 10 <= len(q) <= 150  # bounded near the reference


class TestCrossDiscipline:
    def test_aqm_keeps_shorter_queue_than_droptail_open_loop(self):
        """Under identical overload, every AQM sheds load earlier than
        DropTail (which only drops at capacity)."""
        rng = random.Random(1)

        def drive(q):
            t = 0.0
            for i in range(3000):
                t += 0.0005
                q.enqueue(pkt(i), t)
                if i % 2 == 0:
                    q.dequeue(t)
                if hasattr(q, "update") and i % 10 == 0:
                    q.update()
            return len(q)

        droptail = drive(DropTailQueue(200))
        red = drive(RedQueue(200, min_th=20, max_th=60, max_p=0.2, w_q=0.01,
                             ecn=False, rng=random.Random(2)))
        pi = drive(PiQueue(200, q_ref=30.0, a=2e-3, b=1.9e-3, ecn=False,
                           rng=random.Random(2)))
        assert droptail == 200  # pinned at capacity
        for aqm_q in (red, pi):
            assert aqm_q < droptail
