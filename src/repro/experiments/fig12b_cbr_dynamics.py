"""Section 4.7 (second experiment): dynamics under non-responsive traffic.

The paper: "We have conducted additional experiments, where dynamic
changes in traffic were caused by non-responsive traffic.  The results
are similar to those above" (full data relegated to the thesis [4]).

Reproduced here: a cohort of long-lived flows shares the bottleneck; at
``t_on`` a CBR (UDP-like) source claims a large fraction of the link,
and at ``t_off`` it leaves.  The figure of merit is how quickly the
responsive flows concede and then reclaim the bandwidth — measured as
settling times of their aggregate throughput toward the fair target in
each phase — plus the loss behaviour during the squeeze.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Dict, List, Sequence

from ..metrics.timeseries import settling_time
from ..obs.records import select
from ..runner import run_jobs
from ..sim.engine import Simulator
from ..sim.monitors import ThroughputSampler
from ..traffic.cbr import CbrSink, CbrSource
from ..traffic.ftp import start_long_flows
from .common import (PacketRun, delivered_bytes, paper_buffer_pkts,
                     run_scenario, scheme_dumbbell)
from .scenarios import scheme_at
from .sweep import SECTION4_SCHEMES, job_values, scheme_jobs

__all__ = ["run_cbr_dynamics", "cbr_job", "build", "run", "validation_metrics",
           "paper_bands", "tables"]

TITLE = "Section 4.7 — dynamics under CBR traffic"

PAPER_EXPECTATION = (
    "Responsive flows concede quickly when unresponsive traffic arrives "
    "and reclaim the bandwidth promptly when it leaves; PERT does so "
    "with near-zero loss (Section 4.7: 'results are similar')."
)

#: full tier only: the settling times need the 20 s phases
QUICK = None

COLUMNS = ("scheme", "concede_s", "reclaim_s", "drops_squeeze", "drops_total")


#: dotted-path job kind of :func:`cbr_job`
_KIND = "repro.experiments.fig12b_cbr_dynamics:cbr_job"


def run_cbr_dynamics(
    scheme: str,
    bandwidth: float = 10e6,
    rtt: float = 0.060,
    n_flows: int = 6,
    cbr_fraction: float = 0.5,
    t_on: float = 20.0,
    t_off: float = 40.0,
    duration: float = 60.0,
    seed: int = 1,
    pkt_size: int = 1000,
    sample_interval: float = 0.5,
) -> Dict:
    """One scheme under a CBR on/off squeeze; returns the rate series."""
    run = run_scenario(build, dict(
        scheme=scheme, bandwidth=bandwidth, rtt=rtt, n_flows=n_flows,
        cbr_fraction=cbr_fraction, t_on=t_on, t_off=t_off, duration=duration,
        seed=seed, pkt_size=pkt_size, sample_interval=sample_interval,
        warmup=0.0,
    ))
    drops = [r["t"] for r in select(run.recorder.records, "drop",
                                    queue="bottleneck.fwd")]
    return run.payload(
        scheme=scheme,
        times=run.rates.times,
        agg_rates_bps=run.rates.rates_bps,
        bandwidth=bandwidth,
        cbr_fraction=cbr_fraction,
        t_on=t_on,
        t_off=t_off,
        drops_during_squeeze=sum(1 for t in drops if t_on <= t <= t_off),
        drops_total=len(drops),
    )


def cbr_job(params: dict) -> Dict:
    """Runner job: one scheme's squeeze (:func:`run_cbr_dynamics` keywords)."""
    return run_cbr_dynamics(**params)


def build(params: Dict[str, Any], sim: Simulator) -> PacketRun:
    """Long flows on a dumbbell plus, on a host pair of its own, a CBR
    source that is on from ``t_on`` to ``t_off``; the flows' aggregate
    delivered bytes are sampled and the result counts the bottleneck's
    ``drop`` records."""
    bandwidth, rtt = params["bandwidth"], params["rtt"]
    n_flows, pkt_size = params["n_flows"], params["pkt_size"]
    qdisc, flow_kw = scheme_at(params["scheme"], bandwidth, pkt_size, n_flows, rtt)
    db = scheme_dumbbell(
        sim, qdisc, paper_buffer_pkts(bandwidth, rtt, pkt_size, n_flows),
        bandwidth, [rtt], n_flows + 1, n_flows)
    flow_ids = itertools.count()
    flows = start_long_flows(
        sim, list(zip(db.left[:n_flows], db.right)), flow_ids,
        start_times=[0.1 * i for i in range(n_flows)], **flow_kw)
    cbr = CbrSource(sim, db.left[n_flows], dst=db.right[n_flows].node_id,
                    flow_id=next(flow_ids),
                    rate_bps=params["cbr_fraction"] * bandwidth, pkt_size=pkt_size)
    CbrSink(db.right[n_flows], flow_id=cbr.flow_id)
    sim.schedule_at(params["t_on"], cbr.start)
    sim.schedule_at(params["t_off"], cbr.stop)
    rates = ThroughputSampler(sim, partial(delivered_bytes, flows, pkt_size),
                              interval=params["sample_interval"])
    return PacketRun(
        params, sim, senders=[s for s, _ in flows],
        observed={"bottleneck.fwd": db.fwd, "bottleneck.rev": db.rev},
        recorded=[db.fwd], rates=rates,
    )


def phase_settling_times(result: Dict, tolerance: float = 0.2) -> Dict:
    """Settling time of aggregate TCP throughput in each phase."""
    bw = result["bandwidth"]
    t_on, t_off = result["t_on"], result["t_off"]
    times, rates = result["times"], result["agg_rates_bps"]

    def phase(lo, hi, target):
        idx = [i for i, t in enumerate(times) if lo < t <= hi]
        ts = [times[i] - lo for i in idx]
        xs = [rates[i] for i in idx]
        return settling_time(ts, xs, target, tolerance=tolerance)

    squeezed_target = bw * (1.0 - result["cbr_fraction"])
    return {
        "concede_s": phase(t_on, t_off, squeezed_target),
        "reclaim_s": phase(t_off, times[-1], bw),
    }


def run(schemes: Sequence[str] = SECTION4_SCHEMES, **kwargs) -> List[Dict]:
    """Every scheme through the squeeze, one runner job per scheme;
    *kwargs* as for :func:`run_cbr_dynamics`."""
    rows = []
    for res in job_values(run_jobs(scheme_jobs(_KIND, schemes, kwargs))):
        st = phase_settling_times(res)
        rows.append({
            "scheme": res["scheme"],
            "concede_s": st["concede_s"],
            "reclaim_s": st["reclaim_s"],
            "drops_squeeze": res["drops_during_squeeze"],
            "drops_total": res["drops_total"],
        })
    return rows


def validation_metrics(rows: List[Dict]):
    """Flatten :func:`run` output for ``repro.validate``.

    A phase that never settles yields ``concede_s``/``reclaim_s`` of
    ``None``; those are omitted, so a banded settling time reports as
    ``missing`` (a failure) rather than comparing against ``None``.
    """
    from ..validate.extract import metric_id

    out = {}
    for row in rows:
        for m in COLUMNS[1:]:
            if row[m] is not None:
                out[metric_id(row["scheme"], m)] = float(row[m])
    return out


def paper_bands(tier: str):
    """Section 4.7's claims; the figure runs at the full tier only."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    return {
        "pert.concede_s": paper_band(
            max=10.0, note="§4.7: responsive flows concede quickly"),
        "pert.reclaim_s": paper_band(
            max=10.0, note="§4.7: bandwidth reclaimed promptly"),
        "pert.drops_squeeze": paper_band(
            max=5.0, note="§4.7: PERT concedes with near-zero loss"),
        "pert_vs_sack-droptail.drops_squeeze_ratio": paper_band(
            max=0.1, note="§4.7: PERT absorbs the squeeze without DropTail's "
                          "loss storm"),
    }


def tables(rows: List[Dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, COLUMNS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
