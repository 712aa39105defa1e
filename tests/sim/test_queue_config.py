"""QueueConfig / make_queue: the unified queue construction API."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.queues import (
    DISCIPLINES,
    DropTailQueue,
    PiQueue,
    QueueConfig,
    RedQueue,
    make_queue,
)


class TestRoundTrip:
    """make_queue builds every discipline with its params applied."""

    def test_droptail(self):
        q = make_queue(QueueConfig("droptail", capacity_pkts=42))
        assert isinstance(q, DropTailQueue)
        assert q.capacity == 42

    def test_red(self):
        cfg = QueueConfig(
            "red", capacity_pkts=77,
            params=dict(min_th=7.0, max_th=21.0, max_p=0.2, gentle=False,
                        adaptive=True, ecn=False),
        )
        q = make_queue(cfg)
        assert isinstance(q, RedQueue)
        assert (q.capacity, q.curve.t_min, q.curve.t_max, q.curve.p_max) == (
            77, 7.0, 21.0, 0.2)
        assert (q.curve.gentle, q.adaptive, q.ecn) == (False, True, False)

    def test_pi(self):
        cfg = QueueConfig(
            "pi", capacity_pkts=50,
            params=dict(q_ref=12.0, a=2e-5, b=1e-5, sample_hz=100.0),
        )
        q = make_queue(cfg)
        assert isinstance(q, PiQueue)
        law = q.controller
        assert (law.target_delay, law.gamma, law.beta) == (12.0, 2e-5, 1e-5)
        assert q.period == pytest.approx(0.01)

    def test_every_registered_discipline_constructs(self):
        for name, cls in DISCIPLINES.items():
            q = make_queue(QueueConfig(name, capacity_pkts=10))
            assert isinstance(q, cls)
            assert q.capacity == 10


class TestValidation:
    def test_unknown_discipline_rejected(self):
        with pytest.raises(ValueError, match="unknown discipline"):
            QueueConfig("codel")

    def test_unknown_param_rejected_with_valid_names(self):
        with pytest.raises(ValueError, match="min_th"):
            QueueConfig("red", params=dict(minth=5.0))

    def test_param_of_other_discipline_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            QueueConfig("droptail", params=dict(min_th=5.0))

    @pytest.mark.parametrize("capacity",
                             [0, -5, 2.5, 100.0, True, "100", None])
    def test_capacity_must_be_a_positive_integer(self, capacity):
        """Rejected when the config is built, and by the queue itself —
        a fractional capacity is not rounded up into a bigger buffer."""
        with pytest.raises(ValueError, match="capacity_pkts"):
            QueueConfig("droptail", capacity_pkts=capacity)
        for cls in DISCIPLINES.values():
            with pytest.raises(ValueError, match="capacity_pkts"):
                cls(capacity)

    def test_numpy_integer_capacity_is_accepted(self):
        import numpy as np

        cfg = QueueConfig("red", capacity_pkts=np.int64(7))
        assert make_queue(cfg).capacity == 7


class TestRngAndSim:
    def test_sim_derives_the_legacy_stream_label(self):
        # make_queue(sim=...) must claim the same per-discipline stream
        # the old hand-rolled factories claimed ("red", unique=True), so
        # fixed-seed experiments are bit-identical across both paths.
        sim_new = Simulator(seed=9)
        q_new = make_queue(QueueConfig("red"), sim=sim_new)
        sim_old = Simulator(seed=9)
        q_old = RedQueue(100, rng=sim_old.stream("red", unique=True))
        draws_new = [q_new.rng.random() for _ in range(5)]
        draws_old = [q_old.rng.random() for _ in range(5)]
        assert draws_new == draws_old

    def test_explicit_rng_wins(self):
        rng = random.Random(123)
        q = make_queue(QueueConfig("red"), sim=Simulator(seed=9), rng=rng)
        assert q.rng is rng

    def test_sim_attaches_periodic_controllers(self):
        sim = Simulator(seed=1)
        make_queue(QueueConfig("pi"), sim=sim)
        assert sim.pending() == 1  # the controller tick is scheduled

    def test_two_queues_per_sim_coexist(self):
        sim = Simulator(seed=1)
        make_queue(QueueConfig("red"), sim=sim)
        make_queue(QueueConfig("red"), sim=sim)  # claims "red#1", no clash
