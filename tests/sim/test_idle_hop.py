"""The idle-hop pass-through and the empty-departure skip change nothing.

``Link.send`` hands a packet that finds the link idle straight to the
transmitter when the queue is a plain tail-drop FIFO with no instrument,
and ``Link._tx_done`` goes idle on an empty buffer without a ``dequeue``.
Both rest on contracts pinned here: a run with the pass-through is
indistinguishable from one with it switched off through the documented
seam (a class-level wrapper installed before the build), and ``dequeue``
on an empty buffer returns ``None`` and changes nothing, for every
discipline ``make_queue`` builds.
"""

import pickle

import pytest

from repro.experiments.common import run_dumbbell
from repro.experiments.scenarios import SCHEMES
from repro.obs.collect import Collector
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import (DISCIPLINES, PiQueue, QueueConfig, RedQueue,
                              make_queue)
from repro.sim.queues.base import QueueDiscipline

#: small enough to run every scheme twice, busy enough to drop, mark and
#: let the bottleneck go idle: reverse data and web sessions included
_KWARGS = dict(bandwidth=4e6, rtt=0.04, n_fwd=4, n_rev=1, web_sessions=2,
               buffer_pkts=12, duration=3.0, warmup=1.0, seed=7,
               keep_refs=True)

#: every ``QueueStats`` counter, the stored and the derived
_COUNTERS = ("arrivals", "enqueues", "drops", "forced_drops", "early_drops",
             "marks", "departures", "bytes_in", "bytes_out")


def _run(scheme, monkeypatch, passthrough, traced):
    """One run; the pass-through is switched off by wrapping ``dequeue``
    on the class before anything is built."""
    with monkeypatch.context() as patch:
        if not passthrough:
            orig = QueueDiscipline.dequeue
            patch.setattr(QueueDiscipline, "dequeue",
                          lambda self, now: orig(self, now))
        collector = Collector(trace=True) if traced else False
        result = run_dumbbell(scheme, collector=collector, **_KWARGS)
    links = result.extras["dumbbell"].net.links
    assert any(link.qdisc._plain_admit for link in links) is passthrough
    return (
        result.payload(),
        [{name: getattr(link.qdisc.stats, name) for name in _COUNTERS}
         for link in links],
        [(link.bytes_transmitted, link.packets_transmitted,
          link._tx and (link._tx.flow_id, link._tx.seq, link._tx.size),
          len(link.qdisc), link.qdisc.byte_length)
         for link in links],
        collector.records if traced else None,
    )


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_the_pass_through_changes_no_result_counter_or_record(
        scheme, traced, monkeypatch):
    fast = _run(scheme, monkeypatch, passthrough=True, traced=traced)
    full = _run(scheme, monkeypatch, passthrough=False, traced=traced)
    assert fast[0] == full[0]  # payload, events_processed included
    assert fast[1] == full[1]  # every link's QueueStats
    assert fast[2] == full[2]  # every link's counters and end state
    if traced:
        assert fast[3] and fast[3] == full[3]
    assert sum(s["drops"] for s in fast[1]) > 0


@pytest.mark.parametrize("scheme, cls", [("sack-red-ecn", RedQueue),
                                         ("sack-pi-ecn", PiQueue)])
def test_an_aqm_law_sees_every_arrival(scheme, cls, monkeypatch):
    """RED and PI never take the pass-through: their ``admit`` is the law,
    and it runs on every arrival, idle link or not."""
    calls = []
    orig = cls.admit

    def admit(self, pkt, now):
        calls.append(self)
        return orig(self, pkt, now)

    monkeypatch.setattr(cls, "admit", admit)
    result = run_dumbbell(scheme, collector=False, **_KWARGS)
    db = result.extras["dumbbell"]
    for link in (db.fwd, db.rev):
        assert calls.count(link.qdisc) == link.qdisc.stats.arrivals > 0


def _queues():
    """One queue per discipline, wired as ``make_queue`` wires them."""
    for name in sorted(DISCIPLINES):
        sim = Simulator(seed=3)
        yield name, make_queue(QueueConfig(name, capacity_pkts=4), sim=sim)


@pytest.mark.parametrize("name, qdisc", list(_queues()),
                         ids=sorted(DISCIPLINES))
def test_dequeue_on_an_empty_buffer_returns_none_and_changes_nothing(
        name, qdisc):
    def state():
        return pickle.dumps(qdisc.__dict__)

    before = state()
    assert qdisc.dequeue(0.5) is None
    assert state() == before
    # drained, not fresh: the last departure moved RED's idle clock
    pkt = Packet(flow_id=1, src=0, dst=1, seq=0)
    assert qdisc.enqueue(pkt, 1.0)
    assert qdisc.dequeue(1.5) is pkt
    before = state()
    assert qdisc.dequeue(2.0) is None
    assert state() == before
