"""Bit-identical round-trips across every queue discipline and sender.

The core contract of :mod:`repro.snapshot`: restoring a checkpoint and
continuing produces *exactly* the trajectory the original run would have
taken.  Each test builds a small dumbbell, runs to a mid-flight instant,
captures, continues the original, restores a copy, continues that, and
compares exhaustive fingerprints of both end states.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import SCHEMES, get_scheme, scheme_sender_kwargs
from repro.sim.engine import Simulator
from repro.sim.queues import QueueConfig, make_queue
from repro.sim.topology import Dumbbell
from repro.snapshot import capture_bytes, restore_bytes
from repro.tcp.base import connect_flow
from repro.tcp.sack import SackSender

from ..differential.oracle import ENGINES, restore_as


def _fingerprint(sim, ctx):
    """Everything observable about the run's end state, exactly."""
    senders = ctx["senders"]
    qdiscs = ctx["qdiscs"]
    return {
        "now": sim.now,
        "events": sim.events_processed,
        "seq": sim._seq,
        "pending": sim.pending(),
        "senders": [
            (
                s.cum_ack,
                s.next_seq,
                s.cwnd,
                s.ssthresh,
                s.srtt,
                s.pkts_sent,
                s.retransmits,
                s.timeouts,
                s.fast_recoveries,
                sorted(s.sacked),
                s.in_recovery,
                s.recovery_point,
            )
            for s in senders
        ],
        "queues": [
            (
                q.stats.arrivals,
                q.stats.drops,
                q.stats.marks,
                q.stats.departures,
                len(q._buf),
                [p.seq for p in q._buf],
            )
            for q in qdiscs
        ],
    }


def _roundtrip(build, t_snap, t_end):
    """Capture at *t_snap*, continue both branches to *t_end*, compare."""
    sim, ctx = build()
    sim.run(until=t_snap)
    body = capture_bytes(sim, ctx)
    sim.run(until=t_end)
    ref = _fingerprint(sim, ctx)

    sim2, ctx2 = restore_bytes(body)
    assert sim2.now == t_snap
    sim2.run(until=t_end)
    got = _fingerprint(sim2, ctx2)
    assert got == ref
    return ref


def _queue_build(discipline):
    """Two SACK flows through a small `discipline` bottleneck."""
    def build():
        sim = Simulator(seed=11)
        cfg = QueueConfig(discipline, capacity_pkts=25)
        db = Dumbbell(
            sim,
            n_left=2,
            n_right=2,
            bottleneck_bw=4e6,
            bottleneck_delay=0.02,
            qdisc_fwd=lambda: make_queue(cfg, sim=sim),
            qdisc_rev=lambda: make_queue(QueueConfig("droptail", capacity_pkts=100)),
        )
        senders = []
        for i in range(2):
            sender, _sink = connect_flow(
                sim, db.left[i], db.right[i], flow_id=1000 + i,
                sender_cls=SackSender,
            )
            sender.start(at=0.01 * i)
            senders.append(sender)
        return sim, {"senders": senders, "qdiscs": [db.fwd.qdisc, db.rev.qdisc]}
    return build


@pytest.mark.parametrize("discipline", ["droptail", "red", "pi"])
def test_queue_discipline_roundtrip(discipline):
    ref = _roundtrip(_queue_build(discipline), t_snap=1.5, t_end=4.0)
    # the run must actually exercise the queue for the test to mean much
    assert ref["queues"][0][0] > 100  # arrivals


# every sender class the scheme registry knows, via its scheme name
_SENDER_SCHEMES = (
    "sack-droptail",
    "sack-red-ecn",
    "vegas",
    "pert",
    "pert-pi",
)


def _scheme_build(name):
    """Two flows of scheme *name* through its own bottleneck qdisc."""
    def build():
        sim = Simulator(seed=13)
        scheme = get_scheme(name)
        bw, pkt, rtt, n = 4e6, 1000, 0.04, 2
        db = Dumbbell(
            sim,
            n_left=n,
            n_right=n,
            bottleneck_bw=bw,
            bottleneck_delay=rtt / 2,
            qdisc_fwd=lambda: scheme.make_qdisc(sim, 25, bw, pkt, n, rtt),
            qdisc_rev=lambda: make_queue(QueueConfig("droptail", capacity_pkts=100)),
        )
        kwargs = scheme_sender_kwargs(scheme, bw, pkt, n, rtt)
        ecn = scheme.name.endswith("-ecn")
        senders = []
        for i in range(n):
            sender, _sink = connect_flow(
                sim, db.left[i], db.right[i], flow_id=1000 + i,
                sender_cls=scheme.sender_cls, ecn=ecn, **kwargs,
            )
            sender.start(at=0.01 * i)
            senders.append(sender)
        return sim, {"senders": senders, "qdiscs": [db.fwd.qdisc],
                     "links": db.net.links}
    return build


@pytest.mark.parametrize("name", _SENDER_SCHEMES)
def test_sender_class_roundtrip(name):
    assert name in SCHEMES
    ref = _roundtrip(_scheme_build(name), t_snap=1.5, t_end=4.0)
    assert all(s[0] > 0 for s in ref["senders"])  # every flow delivered data


def test_sack_scoreboard_mid_recovery_roundtrip():
    """Snapshot taken *while a SACK sender is in fast recovery*.

    The scoreboard (sacked set, recovery point, rtx bookkeeping) is the
    gnarliest piece of per-flow state; a tiny buffer forces losses, and
    the capture instant is hunted step-by-step until a sender is mid-
    recovery with holes actually recorded.
    """
    build = _queue_build("droptail")

    # hunt for a mid-recovery instant on the reference timeline
    sim, ctx = build()
    t, t_snap = 0.0, None
    while t < 6.0:
        t += 0.005
        sim.run(until=t)
        if any(s.in_recovery and s.sacked for s in ctx["senders"]):
            t_snap = t
            break
    assert t_snap is not None, "no loss recovery observed; shrink the buffer"

    _roundtrip(build, t_snap=t_snap, t_end=t_snap + 2.0)


def test_link_callbacks_rebind_to_restored_objects():
    """Links bind ``dst.receive`` and ``_tx_done`` once, at construction.

    The bound pair is derived, not state: it stays out of the snapshot
    and is re-bound on restore — to the *restored* node and link, or the
    continuation would deliver packets into the original run.
    """
    from repro.sim.jitter import JitterLink
    from repro.sim.link import Link
    from repro.sim.node import Node

    build = _scheme_build("pert")
    sim, ctx = build()
    sim.run(until=1.5)
    sim2, ctx2 = restore_bytes(capture_bytes(sim, ctx))
    assert len(ctx2["links"]) == len(ctx["links"]) > 0
    for old, new in zip(ctx["links"], ctx2["links"]):
        assert new is not old and new.dst is not old.dst
        assert new._deliver.__self__ is new.dst
        assert new._deliver.__func__ is Node.receive
        assert new._on_tx_done.__self__ is new
        assert new._on_tx_done.__func__ is Link._tx_done
    _roundtrip(build, t_snap=1.5, t_end=4.0)  # and resumes bit-identically

    # A state dict written before the slots existed is today's state dict:
    # the callbacks never enter it, and __setstate__ derives them.
    link = ctx2["links"][0]
    state = link.__getstate__()
    assert not {"_deliver", "_on_tx_done"} & set(state)
    clone = Link.__new__(Link)
    clone.__setstate__(state)
    assert clone._deliver == link._deliver
    assert clone._on_tx_done.__self__ is clone

    # a subclass's own `_tx_done` is what gets re-bound
    a, b = Node(sim2, 90, "a"), Node(sim2, 91, "b")
    jitter = JitterLink(sim2, a, b, 1e6, 0.01,
                        make_queue(QueueConfig("droptail", capacity_pkts=5)),
                        jitter=0.002)
    _, restored = restore_bytes(capture_bytes(sim2, jitter))
    assert restored._on_tx_done.__func__ is JitterLink._tx_done
    assert restored._on_tx_done.__self__ is restored
    assert restored.jitter == 0.002


def test_rng_streams_continue_identically():
    """Restored RNG streams resume mid-sequence, not from their seeds."""
    sim = Simulator(seed=5)
    red = make_queue(QueueConfig("red", capacity_pkts=20), sim)
    rng = red.rng
    _burn = [rng.random() for _ in range(100)]
    body = capture_bytes(sim, red)
    expect = [rng.random() for _ in range(10)]

    _sim2, red2 = restore_bytes(body)
    rng2 = red2.rng
    assert rng2 is not rng
    assert [rng2.random() for _ in range(10)] == expect


# ----------------------------------------------------------------------
# reschedule() wake-ups: the canonical form hides the physical heap
# ----------------------------------------------------------------------
def test_snapshot_with_wakeups_outstanding_is_engine_independent(monkeypatch):
    """Mid-flight every RTO timer has been re-armed in place, so the
    engine holds wake-up entries under stale keys.  The snapshot must
    carry each handle under its current key: same bytes as the oracle's
    (which never has a stale entry), restorable under either, resuming
    identically."""
    t_snap, t_end = 1.5, 3.0
    bodies, refs = {}, {}
    for engine, cls in ENGINES.items():
        monkeypatch.setitem(globals(), "Simulator", cls)  # what build() calls
        sim, ctx = _queue_build("droptail")()
        assert type(sim) is cls
        sim.run(until=t_snap)
        stale = [e for e in (sim._next, *sim._heap) if e is not None
                 and len(e) == 5 and e[4] is not None and e[1] != e[4].seq]
        assert bool(stale) == (engine != "legacy")
        for entry in sim.live_entries():
            if entry[4] is not None:
                assert entry[:2] == (entry[4].time, entry[4].seq)
        bodies[engine] = capture_bytes(sim, ctx)
        sim.run(until=t_end)
        refs[engine] = _fingerprint(sim, ctx)
    assert refs["array"] == refs["legacy"]

    for target in ENGINES:
        recaptured = set()
        for engine, body in bodies.items():
            sim, ctx = restore_as(body, target)
            # the only engine-specific bytes are the class reference, so
            # under one target class both bodies must coincide
            recaptured.add(capture_bytes(sim, ctx))
            sim.run(until=t_end)
            assert _fingerprint(sim, ctx) == refs["legacy"], (engine, target)
        assert len(recaptured) == 1, target
