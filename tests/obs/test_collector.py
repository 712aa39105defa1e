"""Collector semantics: hooks, sampling, and the obs on/off golden pin."""

import random

import pytest

from repro.core.pert import PertSender
from repro.experiments.common import run_dumbbell
from repro.obs.collect import Collector
from repro.obs.records import RECORD_TYPES, select, validate_record
from repro.obs.report import _fmt_rate, _queue_delay_summary
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, RedQueue

from ..conftest import make_dumbbell, make_flow, tag


def test_queue_hooks_count_enqueues_and_forced_drops():
    col = Collector(trace=True)
    q = DropTailQueue(2)
    col.attach_queue(q, "q")
    # the slot holds the queue's own instrument, writing the collector's list
    assert q.obs.label == "q" and q.obs.records is col.records
    q.enqueue(Packet(1, 0, 1, seq=0), 0.0)
    q.enqueue(Packet(1, 0, 1, seq=1), 0.1)
    q.enqueue(Packet(1, 0, 1, seq=2), 0.2)  # tail drop (forced)
    snap = col.snapshot()
    assert snap["queue.q.enqueues"] == 2
    assert snap["queue.q.drops"] == 1
    assert snap["queue.q.forced_drops"] == 1
    types = [r["type"] for r in col.records]
    assert types.count("enqueue") == 2
    assert types.count("drop") == 1


def test_marked_packets_count_as_enqueued():
    """A CE-marked packet is admitted: the snapshot reads ``QueueStats``,
    so it cannot disagree with the queue, and the report's drop rate is
    the queue's own (the mirrored counters missed every mark)."""
    col = Collector()
    q = RedQueue(20, min_th=2, max_th=6, max_p=0.5, w_q=0.5, ecn=True,
                 rng=random.Random(3))
    col.attach_queue(q, "q", bandwidth=8e6)
    for i in range(400):  # ECT arrivals outpace the drain: marks, then drops
        q.enqueue(Packet(1, 0, 1, seq=i, ect=True), i * 0.001)
        if i % 3 == 0:
            q.dequeue(i * 0.001)
    assert q.stats.marks > 0 and q.stats.drops > 0
    snap = col.snapshot()
    assert snap["queue.q.enqueues"] == q.stats.enqueues
    assert snap["queue.q.marks"] == q.stats.marks
    assert snap["queue.q.drops"] + snap["queue.q.enqueues"] == q.stats.arrivals
    [row] = _queue_delay_summary([{"kind": "t", "metrics": snap}])
    assert row[4] == _fmt_rate(q.stats.drop_rate)


def test_attaching_counts_nothing_twice():
    """Re-using a label re-points its readings at the new component."""
    col = Collector()
    first, second = DropTailQueue(1), DropTailQueue(1)
    col.attach_queue(first, "q")
    first.enqueue(Packet(1, 0, 1, seq=0), 0.0)
    col.attach_queue(second, "q")
    assert col.snapshot()["queue.q.enqueues"] == 0
    assert first.obs is not second.obs


def test_a_custom_curve_in_a_red_queue_can_be_sampled():
    """Any object with ``probability(signal)`` is a curve; the sampled
    ``aqm`` state must not assume it has gentle RED's ``p_max``."""
    class Step:
        def probability(self, signal):
            return float(signal > 3.0)

    col = Collector(trace=True)
    q = RedQueue(10)
    q.curve = Step()
    col.attach_queue(q, "q")
    q.enqueue(Packet(1, 0, 1, seq=0), 0.0)
    [sample] = select(col.records, "queue_sample")
    assert sample["aqm"] == {"avg": q.avg, "max_p": None, "p": 0.0}


def test_sampling_is_rate_limited_by_sim_time():
    col = Collector(trace=True, sample_interval=1.0)
    q = DropTailQueue(100)
    col.attach_queue(q, "q")
    for i in range(50):  # 50 events within 0.5s of simulated time
        q.enqueue(Packet(1, 0, 1, seq=i), i * 0.01)
    samples = [r for r in col.records if r["type"] == "queue_sample"]
    assert len(samples) == 1  # first event sampled, the rest gated


def test_attached_sender_cwnd_samples_are_schema_records():
    """A flow's cwnd / ssthresh / srtt series is the ``cwnd_sample``
    records the collector takes on the ACK path, at most once per
    sample interval."""
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, _ = make_flow(sim, db)
    col = Collector(trace=True, sample_interval=1.0)
    col.attach_sender(sender)
    sender.start()
    sim.run(until=3.0)
    samples = select(col.records, "cwnd_sample")
    assert len(samples) == 3  # the first ACK, then one per second
    for rec in samples:
        validate_record(rec)
        assert rec["flow"] == sender.flow_id
        assert rec["cwnd"] >= 1.0 and rec["ssthresh"] > 0 and rec["srtt"] > 0
    gaps = [b["t"] - a["t"] for a, b in zip(samples, samples[1:])]
    assert min(gaps) >= 1.0


def test_trace_records_validate_against_schema():
    col = Collector(trace=True, sample_interval=0.05)
    result = run_dumbbell(
        "pert", 4e6, duration=6.0, warmup=2.0, n_fwd=3, seed=3, collector=col,
    )
    assert result.events_processed > 0
    assert col.records, "instrumented run should produce trace records"
    for rec in col.records:
        validate_record(rec)
    assert {r["type"] for r in col.records} <= set(RECORD_TYPES)


def test_finalize_records_engine_gauges():
    col = Collector()
    sim = Simulator(seed=1)
    sim.schedule(0.5, lambda: None)
    sim.run()
    col.finalize(sim)
    snap = col.snapshot()
    assert snap["sim.events_processed"] == 1
    assert snap["sim.time"] == pytest.approx(0.5)


def test_collector_rejects_bad_interval():
    with pytest.raises(ValueError):
        Collector(sample_interval=0.0)


def test_tracing_collector_rejects_bad_interval():
    with pytest.raises(ValueError):
        Collector(trace=True, sample_interval=0.0)


@pytest.mark.parametrize("interval", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("trace", [False, True])
def test_collector_names_a_non_finite_interval(interval, trace):
    with pytest.raises(ValueError, match="sample_interval"):
        Collector(trace=trace, sample_interval=interval)


def test_tagging_needs_somewhere_to_record():
    sim = Simulator(seed=1)
    sender, _ = make_flow(sim, make_dumbbell(sim))
    with pytest.raises(ValueError, match="every_ack"):
        Collector().attach_sender(sender, every_ack=True)


# ----------------------------------------------------------------------
# window cuts: ``cwnd`` is the window before the cut, ``cwnd_after`` the
# one it left, on all three record types (hand-driven senders)
# ----------------------------------------------------------------------
def _hand_driven(sender_cls=PertSender):
    sim = Simulator(seed=1)
    sender, _ = make_flow(sim, make_dumbbell(sim), sender_cls=sender_cls)
    records = tag(sender)
    sender.cwnd = 40.0
    return sender, records


def test_early_response_record_carries_both_windows_and_the_decision():
    sender, records = _hand_driven()
    sender.signal.update(0.030)
    sender.signal.update(0.050)
    sender._early_response(0.25)
    [rec] = select(records, "early_response")
    validate_record(rec)
    assert (rec["cwnd"], rec["cwnd_after"]) == (40.0, 26.0) == (40.0, sender.cwnd)
    assert rec["srtt"] == sender.signal.value
    assert rec["signal"] == sender.signal.queuing_delay > 0
    assert rec["p"] == 0.25


def test_timeout_record_carries_both_windows():
    sender, records = _hand_driven()
    sender.high_water = 5  # something is outstanding
    sender._on_timeout()
    [rec] = select(records, "timeout")
    validate_record(rec)
    assert (rec["cwnd"], rec["cwnd_after"]) == (40.0, 1.0)
    assert sender.timeouts == 1 and sender.ssthresh == 20.0


def test_loss_record_carries_both_windows():
    sender, records = _hand_driven()
    sender._enter_recovery()
    sender._enter_recovery()  # already in recovery: no second cut, no record
    [rec] = select(records, "loss")
    validate_record(rec)
    assert (rec["cwnd"], rec["cwnd_after"]) == (40.0, 20.0)
    assert sender.fast_recoveries == 1


# ----------------------------------------------------------------------
# The golden pin: observability must never perturb a simulation.
# ----------------------------------------------------------------------
def test_obs_on_off_results_identical():
    kwargs = dict(
        bandwidth=5e6, duration=8.0, warmup=3.0, n_fwd=4, n_rev=1,
        web_sessions=2, seed=7,
    )
    plain = run_dumbbell("pert", collector=False, **kwargs)
    instrumented = run_dumbbell(
        "pert",
        collector=Collector(trace=True, sample_interval=0.05),
        **kwargs,
    )
    # Full-result equality, including the event count: attaching a
    # collector must not schedule events, draw RNG, or change any metric.
    assert instrumented == plain
    assert instrumented.events_processed == plain.events_processed


def test_obs_on_off_identical_for_aqm_scheme():
    kwargs = dict(bandwidth=5e6, duration=6.0, warmup=2.0, n_fwd=3, seed=11)
    plain = run_dumbbell("sack-red-ecn", collector=False, **kwargs)
    instrumented = run_dumbbell(
        "sack-red-ecn", collector=Collector(trace=True), **kwargs
    )
    assert instrumented == plain
