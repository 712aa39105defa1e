#!/usr/bin/env python3
"""Quickstart: PERT vs standard TCP on a shared bottleneck.

Builds a 10 Mbps / 60 ms dumbbell, runs eight flows of each scheme, and
prints the paper's headline comparison: PERT keeps the bottleneck queue
small and nearly lossless — with no router support — while matching
standard TCP's utilization and improving its fairness.

Run:  python examples/quickstart.py
(Set REPRO_QUICK=1 for a seconds-scale smoke run — used by CI.)
"""

import os

from repro import (
    DropTailQueue,
    Dumbbell,
    PertSender,
    SackSender,
    Simulator,
    connect_flow,
    jain_index,
)
from repro.obs import Collector, select
from repro.sim.monitors import LinkWindow, QueueSampler

QUICK = os.environ.get("REPRO_QUICK", "").lower() in ("1", "on", "true", "yes")

BANDWIDTH = 10e6  # 10 Mbps bottleneck
N_FLOWS = 4 if QUICK else 8
BUFFER = 100  # packets (~ one bandwidth-delay product)
DURATION, WARMUP = (12.0, 4.0) if QUICK else (40.0, 15.0)


def run(sender_cls, label: str) -> None:
    sim = Simulator(seed=7)
    dumbbell = Dumbbell(
        sim,
        n_left=N_FLOWS,
        n_right=N_FLOWS,
        bottleneck_bw=BANDWIDTH,
        bottleneck_delay=0.02,
        qdisc_fwd=lambda: DropTailQueue(BUFFER),
        access_delays_left=[0.005] * N_FLOWS,
        access_delays_right=[0.005] * N_FLOWS,
    )

    flows = []
    for i in range(N_FLOWS):
        sender, sink = connect_flow(
            sim, dumbbell.left[i], dumbbell.right[i], flow_id=i,
            sender_cls=sender_cls,
        )
        sender.start(at=0.2 * i)  # staggered starts, as in the paper
        flows.append((sender, sink))

    window = LinkWindow(sim, dumbbell.fwd)
    queue = QueueSampler(sim, dumbbell.bottleneck_queue, interval=0.05)
    # every drop, mark and window cut of what it is attached to becomes a
    # record on the collector's one stream (docs/OBSERVABILITY.md)
    collector = Collector(trace=True, trace_packet_events=False)
    collector.attach_queue(dumbbell.bottleneck_queue, "bottleneck")

    sim.run(until=WARMUP)
    window.open()
    delivered0 = [sink.rcv_next for _, sink in flows]
    sim.run(until=DURATION)
    window.close()

    span = DURATION - WARMUP
    goodputs = [
        (sink.rcv_next - d0) * 8000.0 / span
        for (_, sink), d0 in zip(flows, delivered0)
    ]
    early = sum(getattr(s, "early_responses", 0) for s, _ in flows)
    drops = [r for r in select(collector.records, "drop") if r["t"] >= WARMUP]
    print(
        f"{label:12s} queue={queue.mean(WARMUP, DURATION):6.1f} pkts"
        f"  drops={len(drops):4d}"
        f"  utilization={window.utilization:5.1%}"
        f"  fairness={jain_index(goodputs):.3f}"
        f"  early_responses={early}"
    )


def main() -> None:
    print(f"{N_FLOWS} flows, {BANDWIDTH/1e6:.0f} Mbps bottleneck, "
          f"{BUFFER}-packet DropTail buffer, measured over "
          f"[{WARMUP:.0f}s, {DURATION:.0f}s]\n")
    run(SackSender, "SACK TCP")
    run(PertSender, "PERT")
    print("\nPERT emulates RED/ECN *inside the sender* — same FIFO router,"
          "\nbut the queue stays short and losses vanish (paper Sec. 4).")


if __name__ == "__main__":
    main()
