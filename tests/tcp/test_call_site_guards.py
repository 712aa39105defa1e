"""The per-ACK call-site guards of ``tcp.base`` skip only calls that do nothing.

``TcpSender.receive`` / ``_try_send`` and ``TcpSink.receive`` /
``_send_ack`` test at the call site whether ``_process_sack``,
``_check_complete``, ``_next_hole`` and ``_sack_blocks`` have
anything to do, because in the loss-free steady
state they do not.  Each scenario here is one where a guarded call *is*
needed: a spy proves the helper ran and did its work, and the fixed-seed
trajectory is held to the oracle engine's (``tests/differential/oracle.py``),
so the guarded path is checked on the engine and on its specification.
"""

import pytest

from repro.tcp.base import TcpSender, TcpSink, connect_flow

from ..conftest import loss_events, make_dumbbell, rtt_trace, tag
from ..differential.oracle import ENGINES
from ..differential.test_engine_equivalence import FAST_ENGINES
from .test_loss_recovery import LossyQueue

#: scenario -> (data seqs the bottleneck drops once,
#: ``events_processed`` of the same run on the commit before the guards)
SCENARIOS = {
    "finite-clean": ((), 1081),
    "drops": ((10, 11, 30), 1087),
}
NPACKETS = 90


def _run(scenario, monkeypatch, engine="array"):
    """One finite SACK flow over a lossy dumbbell, helpers spied on.

    Returns ``(trajectory, sender, sink)``; ``trajectory["calls"]`` counts,
    per guarded helper, the calls that had work to do.  *engine* names
    the simulator class in the differential harness's ``ENGINES``.
    """
    drop_seqs, _ = SCENARIOS[scenario]
    calls = {}

    def spy(cls, attr, did_work, before=lambda self: None):
        orig = getattr(cls, attr)

        def wrapper(self, *args):
            state = before(self)
            out = orig(self, *args)
            if did_work(self, state, out):
                calls[attr] = calls.get(attr, 0) + 1
            return out

        patch.setattr(cls, attr, wrapper)

    with monkeypatch.context() as patch:  # spies must not stack across runs
        spy(TcpSender, "_check_complete", before=lambda s: s.done,
            did_work=lambda s, was_done, _: s.done and not was_done)
        spy(TcpSender, "_next_hole", lambda s, _, seq: seq is not None)
        spy(TcpSink, "_sack_blocks", lambda s, _, blocks: bool(blocks))
        spy(TcpSender, "_process_sack", before=lambda s: len(s.sacked),
            did_work=lambda s, n_sacked, _: len(s.sacked) > n_sacked)

        sim = ENGINES[engine](seed=1)
        db = make_dumbbell(sim, qdisc_factory=lambda: LossyQueue(200, drop_seqs))
        sender, sink = connect_flow(
            sim, db.left[0], db.right[0], flow_id=1, sender_cls=TcpSender)
        tag(sender)
        completed = []
        sender.on_complete = lambda s: completed.append((sim.now, s.cum_ack))
        sender.start(npackets=NPACKETS)
        sim.run(until=60.0)
    trajectory = dict(
        rtt_trace=tuple(rtt_trace(sender)),  # (time, rtt, cwnd) per sample
        cwnd=sender.cwnd, ssthresh=sender.ssthresh, cum_ack=sender.cum_ack,
        pkts_sent=sender.pkts_sent, retransmits=sender.retransmits,
        fast_recoveries=sender.fast_recoveries, timeouts=sender.timeouts,
        loss_events=tuple(loss_events(sender)), completed=tuple(completed),
        acks_sent=sink.acks_sent, dup_pkts=sink.dup_pkts,
        events_processed=sim.events_processed, pending=sim.pending(),
        calls=calls,
    )
    return trajectory, sender, sink


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_guarded_path_matches_legacy_engine(scenario, engine, monkeypatch):
    legacy, _, _ = _run(scenario, monkeypatch, "legacy")
    fast, _, _ = _run(scenario, monkeypatch, engine)
    assert fast == legacy
    assert fast["events_processed"] == SCENARIOS[scenario][1]


def test_finite_flow_completes_on_its_last_ack(monkeypatch):
    """``_check_complete`` behind ``app_limit is not None``."""
    t, sender, sink = _run("finite-clean", monkeypatch)
    assert t["calls"]["_check_complete"] == 1
    assert sender.done and sender._rtx_timer is None
    (when, cum_ack), = t["completed"]
    assert cum_ack == NPACKETS == sink.rcv_next
    assert when == t["rtt_trace"][-1][0]  # on the ACK that carried it
    assert t["pending"] == 0  # nothing re-armed or sent afterwards
    assert t["pkts_sent"] == NPACKETS and t["acks_sent"] == NPACKETS
    # and nothing else had work to do
    assert set(t["calls"]) == {"_check_complete"}


def test_sack_blocks_and_holes_after_drops(monkeypatch):
    """``_sack_blocks``, ``_process_sack`` and ``_next_hole`` behind theirs."""
    t, sender, sink = _run("drops", monkeypatch)
    calls = t["calls"]
    assert calls["_sack_blocks"] > 0  # receiver had out-of-order data
    assert calls["_process_sack"] > 0  # sender scored new SACKed packets
    assert calls["_next_hole"] == t["retransmits"] == 3  # `lost` non-empty
    assert t["fast_recoveries"] >= 1 and t["timeouts"] == 0
    assert sender.done and sink.rcv_next == NPACKETS
    assert not sender.lost and not sender.rtx_out and not sink.out_of_order

