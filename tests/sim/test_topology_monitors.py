"""Unit tests for topology builders and monitors."""

import pytest

from repro.obs.records import select, validate_record
from repro.sim.engine import Simulator
from repro.sim.monitors import LinkWindow, QueueSampler, ThroughputSampler
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.sim.topology import Dumbbell, ParkingLot

from ..conftest import drop_log, drop_times


def test_dumbbell_shape():
    sim = Simulator()
    db = Dumbbell(sim, n_left=3, n_right=2, bottleneck_bw=1e6,
                  bottleneck_delay=0.01, qdisc_fwd=lambda: DropTailQueue(10))
    assert len(db.left) == 3 and len(db.right) == 2
    assert db.fwd.src is db.r1 and db.fwd.dst is db.r2
    assert db.rev.src is db.r2 and db.rev.dst is db.r1
    # all-pairs routes exist
    assert db.right[1].node_id in db.left[0].routes
    assert db.left[2].node_id in db.right[0].routes


def test_dumbbell_access_delays_applied():
    sim = Simulator()
    db = Dumbbell(sim, n_left=2, n_right=2, bottleneck_bw=1e6,
                  bottleneck_delay=0.01, qdisc_fwd=lambda: DropTailQueue(10),
                  access_delays_left=[0.002, 0.004],
                  access_delays_right=[0.001, 0.003])
    link = db.left[1].routes[db.right[0].node_id]
    assert link.delay == pytest.approx(0.004)


def test_dumbbell_delay_list_length_validated():
    sim = Simulator()
    with pytest.raises(ValueError):
        Dumbbell(sim, n_left=2, n_right=2, bottleneck_bw=1e6,
                 bottleneck_delay=0.01, qdisc_fwd=lambda: DropTailQueue(10),
                 access_delays_left=[0.001])


def test_parking_lot_shape():
    sim = Simulator()
    lot = ParkingLot(sim, n_routers=4, cloud_size=2, link_bw=1e6,
                     link_delay=0.005, qdisc=lambda: DropTailQueue(10))
    assert len(lot.routers) == 4
    assert len(lot.core_links) == 3
    assert all(len(c) == 2 for c in lot.clouds)
    # end-to-end path uses the router chain
    first_cloud_host = lot.clouds[0][0]
    assert lot.clouds[-1][0].node_id in first_cloud_host.routes


def test_parking_lot_requires_two_routers():
    sim = Simulator()
    with pytest.raises(ValueError):
        ParkingLot(sim, n_routers=1, cloud_size=1, link_bw=1e6,
                   link_delay=0.005, qdisc=lambda: DropTailQueue(10))


def test_queue_sampler_records_and_lookup():
    sim = Simulator()
    q = DropTailQueue(10)
    sampler = QueueSampler(sim, q, interval=0.1)
    sim.schedule(0.15, lambda: q.enqueue(Packet(1, 0, 1, seq=0), sim.now))
    sim.run(until=0.55)
    assert sampler.length_at(0.0) == 0
    assert sampler.length_at(0.3) == 1
    assert sampler.mean(0.2, 0.5) == pytest.approx(1.0)


def test_queue_sampler_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        QueueSampler(sim, DropTailQueue(5), interval=0.0)


def test_queue_sampler_mean_respects_window_bounds():
    sim = Simulator()
    q = DropTailQueue(10)
    sampler = QueueSampler(sim, q, interval=1.0)
    # one packet added per second: lengths are 0,1,2,3,... at t=0,1,2,...
    for i in range(5):
        sim.schedule(i + 0.5, lambda: q.enqueue(Packet(1, 0, 1, seq=0), sim.now))
    sim.run(until=5.5)
    assert sampler.lengths == [0, 1, 2, 3, 4, 5]
    assert sampler.mean() == pytest.approx(15.0 / 6)
    assert sampler.mean(start=2.0, end=4.0) == pytest.approx((2 + 3 + 4) / 3)
    assert sampler.mean(start=2.5, end=3.5) == pytest.approx(3.0)  # only t=3
    assert sampler.mean(start=9.0) == 0.0  # empty window
    assert sampler.mean(start=0.0, end=0.0) == pytest.approx(0.0)


def test_drop_log_filters_by_flow():
    q = DropTailQueue(1)
    log = drop_log(q)
    q.enqueue(Packet(1, 0, 1, seq=0), 0.0)
    q.enqueue(Packet(1, 0, 1, seq=1), 1.0)  # dropped
    q.enqueue(Packet(2, 0, 1, seq=0), 2.0)  # dropped
    assert drop_times(log) == [1.0, 2.0]
    assert drop_times(log, flow_id=2) == [2.0]
    assert sum(t >= 1.5 for t in drop_times(log)) == 1


def test_link_window_requires_open_close(sim, dumbbell):
    win = LinkWindow(sim, dumbbell.fwd)
    with pytest.raises(RuntimeError):
        _ = win.utilization
    win.open()
    with pytest.raises(RuntimeError):
        _ = win.drop_rate


def test_link_window_rejects_double_open(sim, dumbbell):
    win = LinkWindow(sim, dumbbell.fwd)
    win.open()
    with pytest.raises(RuntimeError, match="already open"):
        win.open()  # would silently reset the baselines mid-window


def test_link_window_can_reopen_after_close(sim, dumbbell):
    win = LinkWindow(sim, dumbbell.fwd)
    win.open()
    sim.run(until=1.0)
    win.close()
    assert win.duration == pytest.approx(1.0)
    win.open()  # legitimate second window
    sim.run(until=3.0)
    win.close()
    assert win.duration == pytest.approx(2.0)


def test_drop_log_stores_schema_records():
    q = DropTailQueue(1)
    log = drop_log(q, label="bn")
    q.enqueue(Packet(1, 0, 1, seq=0), 0.0)
    q.enqueue(Packet(1, 0, 1, seq=7), 1.0)  # dropped (buffer full)
    [rec] = select(log, "drop")
    assert (rec["t"], rec["flow"]) == (1.0, 1)
    validate_record(rec)
    assert rec["type"] == "drop" and rec["queue"] == "bn"
    assert rec["seq"] == 7 and rec["forced"] is True


def test_throughput_sampler_rates():
    sim = Simulator()
    counter = {"bytes": 0}

    def add():
        counter["bytes"] += 1000
        sim.schedule(0.1, add)

    sampler = ThroughputSampler(sim, lambda: counter["bytes"], interval=1.0)
    sim.schedule(0.05, add)
    sim.run(until=3.05)
    # 10 packets of 1000 B per second = 80 kbps
    assert sampler.rates_bps[1] == pytest.approx(80000.0)


def test_throughput_sampler_alignment_and_deltas():
    sim = Simulator()
    counter = {"bytes": 500}  # non-zero baseline must not leak into rates

    sampler = ThroughputSampler(sim, lambda: counter["bytes"], interval=0.5)
    sim.schedule(0.2, lambda: counter.update(bytes=counter["bytes"] + 250))
    sim.schedule(0.8, lambda: counter.update(bytes=counter["bytes"] + 750))
    sim.run(until=1.6)
    # first sample lands at t=interval, then every interval thereafter
    assert sampler.times == pytest.approx([0.5, 1.0, 1.5])
    # each rate is the delta over its own interval, not a running total
    assert sampler.rates_bps[0] == pytest.approx(250 * 8 / 0.5)
    assert sampler.rates_bps[1] == pytest.approx(750 * 8 / 0.5)
    assert sampler.rates_bps[2] == pytest.approx(0.0)


def test_throughput_sampler_reads_every_counter_in_one_tick():
    sim = Simulator()
    counters = {"a": 0, "b": 100}
    sampler = ThroughputSampler(sim, lambda: counters["a"],
                                lambda: counters["b"], interval=0.5)
    sim.schedule(0.2, lambda: counters.update(a=250))
    sim.schedule(0.7, lambda: counters.update(b=600))
    before = sim.events_processed
    sim.run(until=1.2)
    assert sampler.times == pytest.approx([0.5, 1.0])
    assert sampler.series == [[250 * 8 / 0.5, 0.0], [0.0, 500 * 8 / 0.5]]
    assert sampler.rates_bps is sampler.series[0]
    assert sim.events_processed - before == 2 + 2  # two updates, two ticks


def test_throughput_sampler_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ThroughputSampler(sim, lambda: 0, interval=0.0)
