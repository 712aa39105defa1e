"""PERT's RTT signal sums forward and reverse queuing delay (paper Sec. 7)."""

from repro.core.pert import PertSender
from repro.sim.engine import Simulator
from repro.sim.queues import DropTailQueue
from repro.sim.topology import Dumbbell
from repro.tcp.base import connect_flow
from repro.traffic.cbr import CbrSink, CbrSource


def test_rtt_pert_responds_to_reverse_congestion():
    """One forward flow whose window stays below the path BDP, so the
    forward queue never builds, plus a CBR flood of the *reverse*
    bottleneck: the early responses come from ACK-path delay alone."""
    sim = Simulator(seed=5)
    db = Dumbbell(
        sim, n_left=2, n_right=2, bottleneck_bw=8e6, bottleneck_delay=0.01,
        qdisc_fwd=lambda: DropTailQueue(100),
        qdisc_rev=lambda: DropTailQueue(100),
    )
    sender, _ = connect_flow(sim, db.left[0], db.right[0], flow_id=1,
                             sender_cls=PertSender, max_cwnd=15.0)
    sender.start()
    cbr = CbrSource(sim, db.right[1], dst=db.left[1].node_id, flow_id=2,
                    rate_bps=7.9e6)
    CbrSink(db.left[1], flow_id=2)
    cbr.start(at=3.0)
    sim.run(until=20.0)
    assert sender.early_responses > 0
