"""Exact heap traffic per bottleneck packet on a smoke-sized PERT dumbbell.

The event that is already the next to fire when it is scheduled waits in
the engine's one-entry slot and never touches the heap.  This pins that
saving as a count, checkable without a stopwatch: ``heappush`` +
``heappop`` C calls per bottleneck packet stay at or below 8.0 (12.09
when every event went through the heap), while the events themselves —
what the benchmark digests pin — do not change by a single one.
"""

import heapq
import sys

from repro.experiments.common import run_dumbbell

#: ``benchmarks/e2e`` ``packet.endhost`` at smoke size, seed 2
_KWARGS = dict(bandwidth=50e6, rtt=0.06, n_fwd=50, duration=2.0, warmup=0.8,
               seed=2, collector=False, keep_refs=True)

#: events and bottleneck packets of that run, exact; both predate the slot
_EVENTS, _PKTS = 134_905, 22_381


def test_heap_ops_per_packet_with_events_unchanged():
    heap_calls = (heapq.heappush, heapq.heappop)
    ops = 0

    def profile(frame, event, arg):
        nonlocal ops
        if event == "c_call" and arg in heap_calls:
            ops += 1

    sys.setprofile(profile)
    try:
        result = run_dumbbell("pert", **_KWARGS)
    finally:
        sys.setprofile(None)
    db = result.extras["dumbbell"]
    pkts = db.fwd.packets_transmitted + db.rev.packets_transmitted
    assert (result.events_processed, pkts) == (_EVENTS, _PKTS)
    assert ops / pkts <= 8.0, f"{ops / pkts:.2f} heap C calls per packet"
