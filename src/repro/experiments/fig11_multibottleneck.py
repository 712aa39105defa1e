"""Figure 11: multiple bottleneck links (parking-lot topology).

Paper setup (Figure 10): six routers R1..R6 joined by 150 Mbps / 5 ms
links, a 20-host cloud per router; each cloud sends to the next cloud
downstream, and cloud 1 additionally sends end-to-end to cloud 6.  The
figure reports, per router-router link: average queue, drop rate,
utilization, and the Jain index of the flows crossing it.

Scaled default: 16 Mbps core links, 5 hosts per cloud.

Paper claims: PERT holds low queues and zero drops on *every* hop (its
end-to-end delay signal sums the queues along the path), with
utilization like SACK/RED-ECN and fairness preserved for flows sharing
a common set of routers.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from ..metrics.fairness import jain_index
from ..runner import parking_lot_spec, run_jobs
from ..sim.engine import Simulator
from ..sim.monitors import LinkWindow, QueueSampler
from ..sim.topology import make_topology
from ..tcp.base import connect_flow
from .scenarios import get_scheme, scheme_sender_kwargs
from .sweep import SECTION4_SCHEMES, failed_row

__all__ = ["run_parking_lot", "run", "validation_metrics", "tables"]

TITLE = "Figure 11 — multiple bottlenecks (parking lot)"

PAPER_EXPECTATION = (
    "PERT: low queue and zero drops on every hop; utilization similar "
    "to SACK/RED-ECN; per-hop fairness maintained (Figure 11)."
)

QUICK = dict(n_routers=4, cloud_size=3, link_bw=8e6, duration=12.0, warmup=5.0)


def run_parking_lot(
    scheme: str,
    n_routers: int = 6,
    cloud_size: int = 5,
    link_bw: float = 16e6,
    link_delay: float = 0.005,
    duration: float = 50.0,
    warmup: float = 20.0,
    seed: int = 1,
    pkt_size: int = 1000,
) -> List[Dict]:
    """One scheme over the parking lot; returns one row per core hop."""
    spec = get_scheme(scheme)
    sim = Simulator(seed=seed)
    # Path RTT for the longest (end-to-end) flows bounds the BDP.
    e2e_rtt = 2.0 * (link_delay * (n_routers - 1) + 2 * 0.005)
    buffer_pkts = max(
        int(round(link_bw * e2e_rtt / (8.0 * pkt_size))), 2 * cloud_size * 2, 8
    )
    n_hop_flows = cloud_size
    sender_kwargs = scheme_sender_kwargs(spec, link_bw, pkt_size,
                                         n_hop_flows * 2, e2e_rtt)

    def qdisc():
        return spec.make_qdisc(sim, buffer_pkts, link_bw, pkt_size,
                               n_hop_flows * 2, e2e_rtt)

    lot = make_topology(
        "parking_lot",
        sim,
        n_routers=n_routers,
        cloud_size=cloud_size,
        link_bw=link_bw,
        link_delay=link_delay,
        qdisc=qdisc,
    )
    flow_ids = itertools.count()
    rng = sim.stream("starts")
    hop_flows: List[List] = [[] for _ in range(n_routers - 1)]

    # Each cloud i sends to cloud i+1 (crossing hop i).
    for i in range(n_routers - 1):
        for j in range(cloud_size):
            fid = next(flow_ids)
            sender, sink = connect_flow(
                sim, lot.clouds[i][j], lot.clouds[i + 1][j], flow_id=fid,
                sender_cls=spec.sender_cls, pkt_size=pkt_size, **sender_kwargs,
            )
            sender.start(at=rng.uniform(0.0, 5.0))
            hop_flows[i].append((sender, sink))
    # Cloud 1 also sends end-to-end to the last cloud (crossing all hops).
    e2e_flows = []
    for j in range(cloud_size):
        fid = next(flow_ids)
        sender, sink = connect_flow(
            sim, lot.clouds[0][j], lot.clouds[-1][j], flow_id=fid,
            sender_cls=spec.sender_cls, pkt_size=pkt_size, **sender_kwargs,
        )
        sender.start(at=rng.uniform(0.0, 5.0))
        e2e_flows.append((sender, sink))

    fwd_links = [pair[0] for pair in lot.core_links]
    windows = [LinkWindow(sim, link) for link in fwd_links]
    samplers = [QueueSampler(sim, link.qdisc, interval=0.05) for link in fwd_links]

    sim.run(until=warmup)
    for w in windows:
        w.open()
    snapshots = [
        [sink.rcv_next for _, sink in hop_flows[i] + e2e_flows]
        for i in range(n_routers - 1)
    ]
    sim.run(until=duration)
    for w in windows:
        w.close()

    span = duration - warmup
    rows = []
    for i, (w, qs) in enumerate(zip(windows, samplers)):
        flows_here = hop_flows[i] + e2e_flows
        goodputs = [
            (sink.rcv_next - g0) * pkt_size * 8.0 / span
            for (_, sink), g0 in zip(flows_here, snapshots[i])
        ]
        rows.append(
            {
                "hop": f"R{i+1}-R{i+2}",
                "scheme": scheme,
                "norm_queue": qs.mean(warmup, duration) / buffer_pkts,
                "drop_rate": w.drop_rate,
                "utilization": w.utilization,
                "jain": jain_index(goodputs),
            }
        )
    return rows


def run(
    schemes: Sequence[str] = SECTION4_SCHEMES,
    *,
    workers: Optional[int] = None,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress=None,
    **kwargs,
) -> List[Dict]:
    """All schemes over the parking lot, one runner job per scheme."""
    schemes = tuple(schemes)
    specs = [parking_lot_spec(scheme, **kwargs) for scheme in schemes]
    results = run_jobs(
        specs, workers=workers, cache=cache, timeout=timeout,
        retries=retries, progress=progress,
    )
    rows: List[Dict] = []
    for scheme, res in zip(schemes, results):
        if res.ok:
            rows.extend(res.value["rows"])
        else:
            rows.append(failed_row(scheme, {"hop": "*"}, res.error))
    return rows


def validation_metrics(rows: List[Dict]):
    """Flatten :func:`run` output for ``repro.validate`` (per-hop rows)."""
    from ..validate.extract import headline_metrics

    return headline_metrics(rows, keys=("hop",))


def tables(rows: List[Dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, ("hop", "scheme", "norm_queue", "drop_rate",
                     "utilization", "jain"), rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
