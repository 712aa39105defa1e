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
from typing import Any, Dict, List, Sequence

from ..runner import run_jobs
from ..sim.engine import Simulator
from ..sim.topology import make_topology
from ..traffic.ftp import start_long_flows
from .common import (MeasuredLink, PacketRun, bound_params, paper_buffer_pkts,
                     run_scenario)
from .scenarios import scheme_at
from .sweep import SECTION4_SCHEMES, failed_row, scheme_jobs

__all__ = ["run_parking_lot", "parking_lot_job", "build", "run",
           "validation_metrics", "paper_bands", "tables"]

TITLE = "Figure 11 — multiple bottlenecks (parking lot)"

PAPER_EXPECTATION = (
    "PERT: low queue and zero drops on every hop; utilization similar "
    "to SACK/RED-ECN; per-hop fairness maintained (Figure 11)."
)

QUICK = dict(n_routers=4, cloud_size=3, link_bw=8e6, duration=12.0, warmup=5.0)


#: dotted-path job kind of :func:`parking_lot_job`
_KIND = "repro.experiments.fig11_multibottleneck:parking_lot_job"

#: how often each core queue's length is sampled (seconds)
HOP_QUEUE_SAMPLE = 0.05

ROW_METRICS = ("norm_queue", "drop_rate", "utilization", "jain")


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
    return parking_lot_job(dict(
        scheme=scheme, n_routers=n_routers, cloud_size=cloud_size,
        link_bw=link_bw, link_delay=link_delay, duration=duration,
        warmup=warmup, seed=seed, pkt_size=pkt_size))["rows"]


def parking_lot_job(params: dict) -> Dict[str, Any]:
    """Runner job: :func:`run_parking_lot` keywords in, ``{"rows": ...}`` out."""
    p = bound_params(run_parking_lot, **params)
    # Path RTT for the longest (end-to-end) flows bounds the BDP.
    p["e2e_rtt"] = 2.0 * (p["link_delay"] * (p["n_routers"] - 1) + 2 * 0.005)
    p["buffer_pkts"] = paper_buffer_pkts(p["link_bw"], p["e2e_rtt"], p["pkt_size"],
                                         2 * p["cloud_size"])
    run = run_scenario(build, p)
    rows = []
    for hop in run.links:
        metrics = hop.metrics(p)
        rows.append({"hop": hop.label, "scheme": p["scheme"],
                     **{m: metrics[m] for m in ROW_METRICS}})
    return run.payload(rows=rows)


def build(params: Dict[str, Any], sim: Simulator) -> PacketRun:
    """The router chain; each cloud sends to the next one and cloud 1 also
    end to end, so a hop carries two clouds' flows; every hop is measured."""
    cloud_size, buffer_pkts = params["cloud_size"], params["buffer_pkts"]
    qdisc, flow_kw = scheme_at(params["scheme"], params["link_bw"],
                               params["pkt_size"], 2 * cloud_size, params["e2e_rtt"])
    lot = make_topology(
        "parking_lot",
        sim,
        n_routers=params["n_routers"],
        cloud_size=cloud_size,
        link_bw=params["link_bw"],
        link_delay=params["link_delay"],
        qdisc=lambda: qdisc(sim, buffer_pkts),
    )
    flow_ids = itertools.count()
    starts = dict(start_window=5.0, rng=sim.stream("starts"), **flow_kw)
    # Each cloud i sends to cloud i+1 (crossing hop i).
    hop_flows = [
        start_long_flows(sim, list(zip(src, dst)), flow_ids, **starts)
        for src, dst in zip(lot.clouds, lot.clouds[1:])
    ]
    # Cloud 1 also sends end-to-end to the last cloud (crossing all hops).
    e2e_flows = start_long_flows(
        sim, list(zip(lot.clouds[0], lot.clouds[-1])), flow_ids, **starts)
    return PacketRun(
        params, sim,
        links=[
            MeasuredLink(sim, f"R{i+1}-R{i+2}", fwd, flows + e2e_flows,
                         HOP_QUEUE_SAMPLE)
            for i, ((fwd, _rev), flows) in enumerate(zip(lot.core_links, hop_flows))
        ],
        senders=[s for flows in hop_flows + [e2e_flows] for s, _ in flows],
    )


def run(schemes: Sequence[str] = SECTION4_SCHEMES, **kwargs) -> List[Dict]:
    """All schemes over the parking lot, one runner job per scheme."""
    schemes = tuple(schemes)
    results = run_jobs(scheme_jobs(_KIND, schemes, kwargs))
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


def paper_bands(tier: str):
    """Fig. 11's per-hop claims at the full tier."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    out = {}
    for hop in ("R1-R2", "R2-R3", "R3-R4", "R4-R5", "R5-R6"):
        at = f"@hop={hop}"
        out[f"pert.drop_rate{at}"] = paper_band(
            max=1e-3, note="Fig. 11: PERT ~zero drops on every hop")
        out[f"pert.norm_queue{at}"] = paper_band(
            max=0.5, note="Fig. 11: PERT low queue on every hop")
        out[f"pert.utilization{at}"] = paper_band(
            min=0.7, note="Fig. 11: utilization like SACK/RED-ECN")
        out[f"pert_vs_sack-droptail.norm_queue_ratio{at}"] = paper_band(
            max=1.0,
            note="Fig. 11: DropTail's queue above PERT's on every hop")
        out[f"pert_vs_sack-droptail.jain_diff{at}"] = paper_band(
            min=0.0, note="Fig. 11: per-hop fairness preserved relative to "
                          "DropTail")
        out[f"pert.jain{at}"] = paper_band(
            min=0.55, note="Fig. 11: per-hop fairness (the index mixes 1-hop "
                           "and end-to-end flows, which no scheme equalizes)")
    out["pert_vs_sack-red-ecn.mean_utilization_diff"] = paper_band(
        min=-0.15, note="Fig. 11: utilization comparable to router RED-ECN")
    return out


def tables(rows: List[Dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, ("hop", "scheme") + ROW_METRICS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
