"""Property: an idle link has an empty buffer, after every event.

``Link.send`` hands a packet that finds the link idle straight to the
transmitter, past a plain tail-drop FIFO, on the strength of this
invariant: a departure leaves the wire free (``_tx`` is ``None``) only
when it finds the buffer empty, so ``link._tx is None`` implies
``len(link.qdisc) == 0``.  It is checked here after every dispatched
event of random dumbbells — each discipline, buffers down to one packet,
an instrument on the bottleneck or not — through the simulator's
profiler seam.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.collect import Collector
from repro.sim.engine import Simulator
from repro.sim.queues import QueueConfig, make_queue
from repro.tcp.base import connect_flow

from ..conftest import make_dumbbell


class IdleMeansEmpty:
    """Profiler that runs each event, then checks every link."""

    def __init__(self, links):
        self.links = links
        self.events = 0

    def dispatch(self, fn, args):
        fn(*args)
        self.events += 1
        for link in self.links:
            assert link._tx is not None or len(link.qdisc) == 0, (
                f"idle link {link!r} holds packets after {fn!r}")


@settings(max_examples=30, deadline=None)
@given(
    discipline=st.sampled_from(["droptail", "red", "pi"]),
    buffer_pkts=st.integers(min_value=1, max_value=20),
    n_flows=st.integers(min_value=1, max_value=3),
    bw=st.sampled_from([1e6, 4e6, 10e6]),
    observed=st.booleans(),
    seed=st.integers(min_value=0, max_value=20),
)
def test_an_idle_link_has_an_empty_buffer_after_every_event(
        discipline, buffer_pkts, n_flows, bw, observed, seed):
    sim = Simulator(seed=seed)
    db = make_dumbbell(
        sim, n=n_flows, bw=bw, buffer_pkts=buffer_pkts,
        qdisc_factory=lambda: make_queue(
            QueueConfig(discipline, capacity_pkts=buffer_pkts), sim=sim))
    if observed:
        Collector(trace=True).attach_queue(db.fwd.qdisc, "fwd")
    for i in range(n_flows):
        sender, _ = connect_flow(sim, db.left[i], db.right[i], flow_id=i)
        sender.start(npackets=60)
    checker = IdleMeansEmpty(db.net.links)
    sim.profiler = checker
    sim.run(until=3.0)
    assert checker.events > 0
