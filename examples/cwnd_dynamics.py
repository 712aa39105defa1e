#!/usr/bin/env python3
"""Window dynamics: PERT's gentle sawtooth vs SACK's loss-driven one.

Traces one flow's congestion window under each scheme on the same
bottleneck and renders the series as ASCII plots.  PERT's probabilistic
35 % early decreases produce a shallow, frequent sawtooth that never
fills the buffer; SACK rides the buffer up to overflow and halves.

Run:  python examples/cwnd_dynamics.py
(Set REPRO_QUICK=1 for a seconds-scale smoke run — used by CI.)
"""

import os

from repro import DropTailQueue, Dumbbell, PertSender, SackSender, Simulator, connect_flow
from repro.metrics.timeseries import ascii_series
from repro.obs import Collector, select

QUICK = os.environ.get("REPRO_QUICK", "").lower() in ("1", "on", "true", "yes")
TRACE_START, DURATION = (2.0, 12.0) if QUICK else (5.0, 30.0)


def trace(sender_cls, label):
    sim = Simulator(seed=21)
    net = Dumbbell(
        sim, n_left=3, n_right=3, bottleneck_bw=8e6, bottleneck_delay=0.02,
        qdisc_fwd=lambda: DropTailQueue(80),
        access_delays_left=[0.005] * 3, access_delays_right=[0.005] * 3,
    )
    # an observed sender leaves a ``cwnd_sample`` record at most every
    # ``sample_interval`` seconds, taken on the first ACK past the mark
    collector = Collector(trace=True, sample_interval=0.05)
    for i in range(3):
        sender, _ = connect_flow(sim, net.left[i], net.right[i], flow_id=i,
                                 sender_cls=sender_cls)
        sender.start(at=0.2 * i)
        if i == 0:
            collector.attach_sender(sender)
    sim.run(until=DURATION)
    cwnd = [r["cwnd"] for r in select(collector.records, "cwnd_sample", flow=0)
            if r["t"] >= TRACE_START]
    stats = {"mean": sum(cwnd) / len(cwnd), "min": min(cwnd), "max": max(cwnd),
             "swing": max(cwnd) / min(cwnd)}
    print(ascii_series(cwnd,
                       label=f"{label} cwnd (packets), "
                             f"{TRACE_START:.0f}-{DURATION:.0f} s"))
    print(f"  mean={stats['mean']:.1f}  min={stats['min']:.1f}  "
          f"max={stats['max']:.1f}  peak/trough={stats['swing']:.2f}\n")
    return stats


def main() -> None:
    sack = trace(SackSender, "SACK")
    pert = trace(PertSender, "PERT")
    print(f"PERT's window swing ({pert['swing']:.2f}x) is shallower than "
          f"SACK's ({sack['swing']:.2f}x):\nearly 35% decreases replace "
          "buffer-overflow halvings (paper Section 3).")


if __name__ == "__main__":
    main()
