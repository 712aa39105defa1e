"""Exact heap and queue traffic per bottleneck packet on a smoke-sized
PERT dumbbell.

The event that is already the next to fire when it is scheduled waits in
the engine's one-entry slot and never touches the heap.  This pins that
saving as a count, checkable without a stopwatch: ``heappush`` +
``heappop`` C calls per bottleneck packet stay at or below 8.0 (12.09
when every event went through the heap), while the events themselves —
what the benchmark digests pin — do not change by a single one.

The link calls its queue only when the queue has work: a packet that
finds the link idle crosses a tail-drop FIFO without ``enqueue`` or
``dequeue``, and a departure that leaves the buffer empty goes idle
without a ``dequeue``.  ``enqueue`` + ``dequeue`` calls per bottleneck
packet stay at or below 1.3 (8.45 when every hop made the round trip),
on the same run.
"""

import heapq
import os
import sys

import pytest

import repro.sim.queues
from repro.experiments.common import run_dumbbell

#: ``benchmarks/e2e`` ``packet.endhost`` at smoke size, seed 2
_KWARGS = dict(bandwidth=50e6, rtt=0.06, n_fwd=50, duration=2.0, warmup=0.8,
               seed=2, collector=False, keep_refs=True)

#: events and bottleneck packets of that run, exact; both predate the slot
_EVENTS, _PKTS = 134_905, 22_381

_QUEUES_DIR = os.path.dirname(repro.sim.queues.__file__) + os.sep
#: the two calls a link makes into its queue
_QUEUE_OPS = ("enqueue", "dequeue")


@pytest.fixture(scope="module")
def traffic():
    """Heap C calls, queue calls, events and packets of one run."""
    heap_calls = (heapq.heappush, heapq.heappop)
    counts = {"heap": 0, "queue": 0}

    def profile(frame, event, arg):
        if event == "c_call":
            if arg in heap_calls:
                counts["heap"] += 1
        elif event == "call":
            code = frame.f_code
            if (code.co_name in _QUEUE_OPS
                    and code.co_filename.startswith(_QUEUES_DIR)):
                counts["queue"] += 1

    sys.setprofile(profile)
    try:
        result = run_dumbbell("pert", **_KWARGS)
    finally:
        sys.setprofile(None)
    db = result.extras["dumbbell"]
    pkts = db.fwd.packets_transmitted + db.rev.packets_transmitted
    return dict(counts, events=result.events_processed, pkts=pkts)


def test_heap_ops_per_packet_with_events_unchanged(traffic):
    pkts = traffic["pkts"]
    assert (traffic["events"], pkts) == (_EVENTS, _PKTS)
    assert traffic["heap"] / pkts <= 8.0, (
        f"{traffic['heap'] / pkts:.2f} heap C calls per packet")


def test_queue_calls_per_packet_with_events_unchanged(traffic):
    pkts = traffic["pkts"]
    assert (traffic["events"], pkts) == (_EVENTS, _PKTS)
    assert traffic["queue"] / pkts <= 1.3, (
        f"{traffic['queue'] / pkts:.2f} queue calls per packet")
