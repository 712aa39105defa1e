"""Unit tests for queue disciplines: DropTail, RED, PI.

Queues are built the config way, ``make_queue(QueueConfig(...))``; one
test at the bottom pins that the direct constructors simply work.
"""

import random
import warnings

import pytest

from repro.obs.records import select
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import (
    DropTailQueue,
    PiQueue,
    QueueConfig,
    RedQueue,
    RemQueue,
    make_queue,
)

from ..conftest import drop_log


def pkt(seq=0, ect=False, size=1000):
    return Packet(flow_id=1, src=0, dst=1, seq=seq, size=size, ect=ect)


def droptail(capacity_pkts):
    return make_queue(QueueConfig("droptail", capacity_pkts=capacity_pkts))


def pi(capacity_pkts=100, sim=None, **params):
    cfg = QueueConfig("pi", capacity_pkts=capacity_pkts, params=params)
    return make_queue(cfg, sim=sim, rng=random.Random(1))


# ----------------------------------------------------------------------
# DropTail
# ----------------------------------------------------------------------
class TestDropTail:
    def test_fifo_order(self):
        q = droptail(10)
        for i in range(3):
            assert q.enqueue(pkt(seq=i), now=0.0)
        assert [q.dequeue(1.0).seq for _ in range(3)] == [0, 1, 2]

    def test_drops_when_full(self):
        q = droptail(2)
        assert q.enqueue(pkt(0), 0.0)
        assert q.enqueue(pkt(1), 0.0)
        assert not q.enqueue(pkt(2), 0.0)
        assert q.stats.drops == 1
        assert q.stats.forced_drops == 1
        assert q.stats.early_drops == 0

    def test_byte_accounting(self):
        q = droptail(5)
        q.enqueue(pkt(0, size=100), 0.0)
        q.enqueue(pkt(1, size=200), 0.0)
        assert q.byte_length == 300
        q.dequeue(1.0)
        assert q.byte_length == 200

    def test_dequeue_empty_returns_none(self):
        q = droptail(5)
        assert q.dequeue(0.0) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            droptail(0)

    def test_drop_is_recorded_through_obs(self):
        q = droptail(1)
        records = drop_log(q)
        q.enqueue(pkt(0), 0.0)
        q.enqueue(pkt(1), 2.0)
        assert [(r["seq"], r["t"]) for r in select(records, "drop")] == [(1, 2.0)]

    def test_conservation(self):
        q = droptail(4)
        accepted = sum(q.enqueue(pkt(i), 0.0) for i in range(10))
        drained = 0
        while q.dequeue(1.0) is not None:
            drained += 1
        assert accepted == drained
        assert q.stats.enqueues == q.stats.departures + len(q)
        assert q.stats.arrivals == q.stats.enqueues + q.stats.drops


# ----------------------------------------------------------------------
# RED
# ----------------------------------------------------------------------
class TestRed:
    def make(self, **kw):
        defaults = dict(
            capacity_pkts=100, min_th=5, max_th=15, max_p=0.1,
            w_q=0.25, gentle=True, ecn=False,
        )
        defaults.update(kw)
        cfg = QueueConfig("red", capacity_pkts=defaults.pop("capacity_pkts"),
                          params=defaults)
        return make_queue(cfg, rng=random.Random(1))

    def test_no_drops_below_min_th(self):
        q = self.make()
        for i in range(4):
            assert q.enqueue(pkt(i), 0.0)
        assert q.stats.drops == 0

    def test_mark_probability_zero_below_min(self):
        q = self.make()
        q.avg = 3.0
        assert q.mark_probability() == 0.0

    def test_mark_probability_linear_between_thresholds(self):
        q = self.make()
        q.avg = 10.0  # midpoint of [5, 15]
        assert q.mark_probability() == pytest.approx(0.05)

    def test_gentle_region(self):
        q = self.make()
        q.avg = 22.5  # midpoint of [15, 30]
        assert q.mark_probability() == pytest.approx(0.1 + 0.9 * 0.5)

    def test_probability_one_beyond_2maxth(self):
        q = self.make()
        q.avg = 31.0
        assert q.mark_probability() == 1.0

    def test_non_gentle_jumps_to_one(self):
        q = self.make(gentle=False)
        q.avg = 16.0
        assert q.mark_probability() == 1.0

    def test_ecn_marks_instead_of_drops(self):
        q = self.make(ecn=True)
        q.avg = 40.0  # forces probability 1
        p = pkt(0, ect=True)
        assert q.enqueue(p, 0.0)
        assert p.ce
        assert q.stats.marks == 1
        assert q.stats.drops == 0

    def test_non_ect_dropped_at_high_avg(self):
        q = self.make(ecn=True)
        q.avg = 40.0
        assert not q.enqueue(pkt(0, ect=False), 0.0)
        assert q.stats.drops == 1

    def test_forced_drop_when_full(self):
        q = self.make(capacity_pkts=2)
        q.enqueue(pkt(0), 0.0)
        q.enqueue(pkt(1), 0.0)
        assert not q.enqueue(pkt(2), 0.0)
        assert q.stats.forced_drops == 1

    def test_average_tracks_queue(self):
        q = self.make(w_q=0.5)
        for i in range(8):
            q.enqueue(pkt(i), 0.0)
        assert 0 < q.avg <= 8

    def test_idle_decay(self):
        q = self.make(w_q=0.5, mean_pkt_time=0.001)
        for i in range(6):
            q.enqueue(pkt(i), 0.0)
        while q.dequeue(0.0) is not None:
            pass
        avg_before = q.avg
        q.enqueue(pkt(99), 1.0)  # 1 s idle: ~1000 packet-times of decay
        assert q.avg < avg_before

    def test_adaptive_max_p_increases_under_pressure(self):
        q = self.make(adaptive=True, interval=0.0)
        q.avg = 14.0  # above the target band
        p0 = q.curve.p_max
        q._adapt_max_p(now=1.0)
        assert q.curve.p_max > p0

    def test_adaptive_max_p_decreases_when_light(self):
        q = self.make(adaptive=True, interval=0.0)
        q.avg = 5.5  # below the target band
        q.curve.p_max = 0.2
        q._adapt_max_p(now=1.0)
        assert q.curve.p_max < 0.2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self.make(min_th=10, max_th=5)
        with pytest.raises(ValueError):
            self.make(max_p=0.0)


# ----------------------------------------------------------------------
# PI
# ----------------------------------------------------------------------
class TestPi:
    def test_probability_rises_above_reference(self):
        q = pi(q_ref=5.0, a=0.01, b=0.005)
        for i in range(20):
            q.enqueue(pkt(i), 0.0)
        p_prev = q.controller.p
        for _ in range(5):
            q.update()
        assert q.controller.p > p_prev

    def test_probability_decays_below_reference(self):
        q = pi(q_ref=50.0, a=0.01, b=0.005)
        q.controller.p = 0.5
        q.controller._prev_err = -50.0  # previous sample: an empty queue
        for _ in range(5):
            q.update()
        assert q.controller.p < 0.5

    def test_probability_clamped(self):
        q = pi(q_ref=0.0, a=10.0, b=0.0)
        for i in range(50):
            q.enqueue(pkt(i), 0.0)
        for _ in range(10):
            q.update()
        assert 0.0 <= q.controller.p <= 1.0

    def test_marks_ect_packets(self):
        q = pi(q_ref=1.0, ecn=True)
        q.controller.p = 1.0
        p = pkt(0, ect=True)
        assert q.enqueue(p, 0.0)
        assert p.ce

    def test_drops_non_ect(self):
        q = pi(q_ref=1.0, ecn=True)
        q.controller.p = 1.0
        assert not q.enqueue(pkt(0), 0.0)

    def test_self_scheduling_with_simulator(self):
        sim = Simulator()
        q = pi(q_ref=0.0, a=0.05, b=0.01, sample_hz=100.0, sim=sim)
        for i in range(30):
            q.enqueue(pkt(i), 0.0)
        sim.run(until=0.5)
        assert q.controller.p > 0.0  # periodic updates fired

    def test_validation(self):
        with pytest.raises(ValueError):
            pi(q_ref=-1.0)
        with pytest.raises(ValueError):
            pi(sample_hz=0.0)


def test_direct_construction_simply_works():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no shim: nothing to warn about
        queues = [cls(3) for cls in (DropTailQueue, RedQueue, PiQueue, RemQueue)]
    for q in queues:
        assert q.capacity == 3 and q.enqueue(pkt(0), 0.0)
