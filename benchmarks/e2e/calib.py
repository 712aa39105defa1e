"""Host-speed calibration kernel and the small statistics the reports use.

This box changes speed by 20-25 % on a timescale of seconds (a noisy
neighbour, not scheduling: process CPU time moves with wall time), so raw
medians of identical work differ by 10-17 % between sessions.  Every timed
repetition is therefore bracketed by :func:`kernel` — fixed pure-Python
work that never changes with the program under test — and reported in
*calibrated* seconds::

    norm_s = wall_s * CALIB_REF_S / mean(calib_before, calib_after)

The kernel is a miniature event simulation (heap push/pop, bound-method
dispatch, slotted attribute traffic, dict/set/deque bookkeeping, float
math, object allocation) followed by a tight heap loop.  A tight loop
alone tracked the host's slow mode only half as strongly as the packet
workloads do (it has a tiny instruction footprint); the mixed kernel
brought the spread of run medians from 16 % raw to about 2 %.
"""

from __future__ import annotations

import heapq
import random
import statistics
import subprocess
import sys
from collections import deque
from time import perf_counter
from typing import Dict, List, Sequence

#: what :func:`kernel` took on the box the bounds were set on; only a
#: scale factor, so calibrated seconds read like seconds there
CALIB_REF_S = 0.090

#: before/after calibrations further apart than this flag the repetition
CALIB_DRIFT_WARN = 0.15


class _Pkt:
    __slots__ = ("flow", "seq", "size", "sent", "ack", "hops")

    def __init__(self, flow, seq, size, sent, ack=False):
        self.flow = flow
        self.seq = seq
        self.size = size
        self.sent = sent
        self.ack = ack
        self.hops = 0


class _Sim:
    __slots__ = ("now", "heap", "seq", "events")

    def __init__(self):
        self.now = 0.0
        self.heap: list = []
        self.seq = 0
        self.events = 0

    def at(self, delay, fn, arg):
        seq = self.seq
        self.seq = seq + 1
        heapq.heappush(self.heap, (self.now + delay, seq, fn, arg))

    def run(self, until):
        heap = self.heap
        pop = heapq.heappop
        n = 0
        while heap:
            entry = pop(heap)
            if entry[0] > until:
                heapq.heappush(heap, entry)
                break
            self.now = entry[0]
            entry[2](entry[3])
            n += 1
        self.events += n


class _Link:
    def __init__(self, sim, rate, delay, cap, dst):
        self.sim = sim
        self.rate = rate
        self.delay = delay
        self.cap = cap
        self.dst = dst
        self.buf: deque = deque()
        self.busy = False
        self.stats = {"in": 0, "drop": 0, "out": 0}

    def send(self, pkt):
        stats = self.stats
        stats["in"] += 1
        if len(self.buf) >= self.cap:
            stats["drop"] += 1
            return
        self.buf.append(pkt)
        if not self.busy:
            self.busy = True
            self.sim.at(pkt.size * 8.0 / self.rate, self.done, self.buf.popleft())

    def done(self, pkt):
        self.stats["out"] += 1
        self.sim.at(self.delay, self.dst.receive, pkt)
        if self.buf:
            nxt = self.buf.popleft()
            self.sim.at(nxt.size * 8.0 / self.rate, self.done, nxt)
        else:
            self.busy = False


class _Node:
    def __init__(self):
        self.routes: dict = {}
        self.endpoints: dict = {}

    def receive(self, pkt):
        pkt.hops += 1
        endpoint = self.endpoints.get((pkt.flow, pkt.ack))
        if endpoint is not None:
            endpoint.receive(pkt)
        else:
            self.routes[pkt.ack].send(pkt)


class _Sender:
    def __init__(self, sim, node, flow, rng):
        self.sim = sim
        self.node = node
        self.flow = flow
        self.rng = rng
        self.cwnd = 2.0
        self.next = 0
        self.sent: dict = {}
        self.out: set = set()
        self.srtt = None
        self.min_rtt = 1e9

    def pump(self, _=None):
        while len(self.out) < self.cwnd:
            seq = self.next
            self.next = seq + 1
            self.sent[seq] = self.sim.now
            self.out.add(seq)
            self.node.receive(_Pkt(self.flow, seq, 1000, self.sim.now))

    def receive(self, pkt):
        sent = self.sent.pop(pkt.seq, None)
        self.out.discard(pkt.seq)
        if sent is not None:
            rtt = self.sim.now - sent
            if rtt < self.min_rtt:
                self.min_rtt = rtt
            self.srtt = rtt if self.srtt is None else 0.99 * self.srtt + 0.01 * rtt
            q = max(0.0, self.srtt - self.min_rtt)
            p = 0.0 if q <= 0.005 else min(1.0, 0.05 * (q - 0.005) / 0.005)
            if p > 0.0 and self.rng.random() < p:
                self.cwnd = max(2.0, self.cwnd * 0.65)
            else:
                self.cwnd += 1.0 / self.cwnd
        if len(self.out) > 4 * self.cwnd:  # stand-in for loss recovery
            lost = min(self.out)
            self.out.discard(lost)
            self.sent.pop(lost, None)
            self.cwnd = max(2.0, self.cwnd / 2)
        self.pump()


class _Sink:
    def __init__(self, node, flow):
        self.node = node
        self.flow = flow

    def receive(self, pkt):
        self.node.receive(_Pkt(self.flow, pkt.seq, 40, pkt.sent, True))


class _Cell:
    __slots__ = ("n", "x")

    def __init__(self):
        self.n = 0
        self.x = 0.0

    def bump(self, v):
        self.n += 1
        self.x = 0.99 * self.x + 0.01 * v
        return self.x


def kernel() -> float:
    """Run the fixed calibration work once; returns its wall seconds."""
    t0 = perf_counter()
    # part 1: miniature dumbbell (20 flows, 20 Mb/s, 4 simulated seconds)
    sim = _Sim()
    left, right = _Node(), _Node()
    left.routes[False] = _Link(sim, 20e6, 0.01, 100, right)
    right.routes[True] = _Link(sim, 20e6, 0.01, 1000, left)
    rng = random.Random(1)
    for flow in range(20):
        sender = _Sender(sim, left, flow, rng)
        left.endpoints[(flow, True)] = sender
        right.endpoints[(flow, False)] = _Sink(right, flow)
        sim.at(rng.random() * 0.1, sender.pump, None)
    sim.run(4.0)
    # part 2: tight heap / slotted-method / dict loop
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    cell = _Cell()
    store: Dict[int, float] = {}
    now = 0.0
    for i in range(40000):
        push(heap, (now + (i * 7919 % 1000) * 1e-3, i, cell, i))
        if i & 1:
            entry = pop(heap)
            now = entry[0]
            store[entry[1] & 1023] = cell.bump(now * 0.5 + 1.0)
    while heap:
        entry = pop(heap)
        store[entry[1] & 1023] = cell.bump(entry[0])
    return perf_counter() - t0


def normalise(wall_s: float, calib_before: float, calib_after: float,
              ref_s: float = CALIB_REF_S) -> float:
    """Wall seconds → calibrated seconds (see the module docstring)."""
    return wall_s * ref_s / ((calib_before + calib_after) / 2.0)


#: what :func:`bare_launch` took on the box the bounds were set on
LAUNCH_REF_S = 0.024


def bare_launch() -> float:
    """Wall seconds of starting a bare interpreter: the set-up probes' kernel.

    Starting a process is exec, page faults and file reads, which follow the
    host's mood differently from user-mode Python: over 100 interleaved
    launches the run medians of probe ÷ :func:`kernel` spread 11.5 %, those
    of probe ÷ bare launch 4.8 % (raw: 25 %).  It runs nothing of ``repro``,
    so no change to the program can move it.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import json, subprocess, argparse"],
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> List[float]:
    """``[p25, median, p75]``; a single value stands for all three."""
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    p25, med, p75 = quartiles(values)
    return (p75 - p25) / med if med else 0.0


def summary(values: Sequence[float], unit: str) -> Dict[str, object]:
    """The shape every timed metric is reported in."""
    p25, med, p75 = quartiles(values)
    return {"value": med, "unit": unit, "p25": p25, "p75": p75, "n": len(values)}
