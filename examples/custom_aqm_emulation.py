#!/usr/bin/env python3
"""Emulating *other* AQM schemes at the end host (paper Sections 6-8).

The paper's closing claim: "the proposed scheme is flexible in the sense
that other AQM schemes can be potentially emulated at the end-host."
This example demonstrates exactly that with laws from ``repro.laws``
plugged into the same sender machinery:

* PERT/RED   — the paper's gentle-RED curve,
* PERT/PI    — the discretised PI controller of Section 6,
* and a *user-defined* law: a quadratic curve written inline.

All three run over plain DropTail routers and are compared on the same
workload.  A law is unit-agnostic, so the claim holds in the other
direction too: the last row puts the *same* ``QuadraticCurve`` class in
a RED router (thresholds in packets of average queue instead of seconds
of queuing delay) under plain ECN SACK senders.

Run:  python examples/custom_aqm_emulation.py
(Set REPRO_QUICK=1 for a seconds-scale smoke run — used by CI.)
"""

import os

from repro import (
    DropTailQueue,
    Dumbbell,
    PertConfig,
    PertPiConfig,
    PertPiSender,
    PertSender,
    SackEcnSender,
    Simulator,
    connect_flow,
    jain_index,
)
from repro.fluid.stability import pert_pi_gains
from repro.obs import Collector, select
from repro.sim.monitors import LinkWindow, QueueSampler
from repro.sim.queues import QueueConfig, make_queue

QUICK = os.environ.get("REPRO_QUICK", "").lower() in ("1", "on", "true", "yes")

BANDWIDTH = 10e6
N_FLOWS = 4 if QUICK else 6
BUFFER = 100
DURATION, WARMUP = (12.0, 4.0) if QUICK else (40.0, 15.0)


class QuadraticCurve:
    """A custom law: probability grows quadratically in the signal.

    Any object with a ``probability(signal) -> float`` method is a curve
    and can replace PERT's (signal: seconds of queuing delay) or a RED
    router's (signal: packets of average queue) — this one responds more
    timidly than gentle RED near the threshold and more sharply later.
    """

    def __init__(self, t_min=0.005, t_full=0.025):
        self.t_min = t_min
        self.t_full = t_full

    def probability(self, signal: float) -> float:
        if signal <= self.t_min:
            return 0.0
        x = min(1.0, (signal - self.t_min) / (self.t_full - self.t_min))
        return x * x


class QuadraticPertSender(PertSender):
    """PERT with the quadratic curve swapped in."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.curve = QuadraticCurve()


def quadratic_red(sim):
    """A RED router (its averaging, its coin) evaluating the custom law."""
    queue = make_queue(QueueConfig("red", capacity_pkts=BUFFER), sim=sim)
    queue.curve = QuadraticCurve(t_min=5.0, t_full=25.0)  # packets
    return queue


def run(sender_cls, label, qdisc=None, **sender_kwargs):
    sim = Simulator(seed=9)
    net = Dumbbell(
        sim, n_left=N_FLOWS, n_right=N_FLOWS, bottleneck_bw=BANDWIDTH,
        bottleneck_delay=0.02,
        qdisc_fwd=lambda: qdisc(sim) if qdisc else DropTailQueue(BUFFER),
        access_delays_left=[0.005] * N_FLOWS,
        access_delays_right=[0.005] * N_FLOWS,
    )
    flows = []
    for i in range(N_FLOWS):
        sender, sink = connect_flow(sim, net.left[i], net.right[i],
                                    flow_id=i, sender_cls=sender_cls,
                                    **sender_kwargs)
        sender.start(at=0.2 * i)
        flows.append((sender, sink))
    window = LinkWindow(sim, net.fwd)
    queue = QueueSampler(sim, net.bottleneck_queue, interval=0.05)
    collector = Collector(trace=True, trace_packet_events=False)
    collector.attach_queue(net.bottleneck_queue, "bottleneck")
    sim.run(until=WARMUP)
    window.open()
    d0 = [sink.rcv_next for _, sink in flows]
    sim.run(until=DURATION)
    window.close()
    span = DURATION - WARMUP
    goodputs = [(s.rcv_next - g) * 8000.0 / span for (_, s), g in zip(flows, d0)]
    drops = [r for r in select(collector.records, "drop") if r["t"] >= WARMUP]
    print(f"{label:16s} queue={queue.mean(WARMUP, DURATION):6.1f} pkts"
          f"  drops={len(drops):3d}"
          f"  util={window.utilization:6.1%}"
          f"  fairness={jain_index(goodputs):.3f}"
          f"  early={sum(getattr(s, 'early_responses', 0) for s, _ in flows)}"
          f"  marks={net.bottleneck_queue.stats.marks}")


def main() -> None:
    print(f"{N_FLOWS} flows, {BANDWIDTH/1e6:.0f} Mbps DropTail bottleneck — "
          "three AQMs emulated with zero router support,\nthen the custom "
          "law moved into the router\n")
    run(PertSender, "PERT/RED")
    pkt_rate = BANDWIDTH / 8000.0
    k, m = pert_pi_gains(capacity=pkt_rate, n_minus=N_FLOWS // 2, r_plus=0.1)
    run(PertPiSender, "PERT/PI",
        config=PertPiConfig(k=k, m=m, target_delay=0.003,
                            delta=N_FLOWS / pkt_rate))
    run(QuadraticPertSender, "PERT/custom")
    run(SackEcnSender, "SACK/custom-ECN", qdisc=quadratic_red)
    print("\nSwapping the law is a one-class change, at the end host or at"
          "\nthe router — the paper's generality claim, demonstrated.")


if __name__ == "__main__":
    main()
