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
from typing import Dict, List, Sequence

from ..metrics.timeseries import settling_time
from ..sim.engine import Simulator
from ..sim.monitors import DropLog
from ..tcp.base import connect_flow
from ..traffic.cbr import CbrSink, CbrSource
from .fig12_dynamics import scheme_dumbbell
from .sweep import SECTION4_SCHEMES

__all__ = ["run_cbr_dynamics", "run", "validation_metrics", "tables"]

TITLE = "Section 4.7 — dynamics under CBR traffic"

PAPER_EXPECTATION = (
    "Responsive flows concede quickly when unresponsive traffic arrives "
    "and reclaim the bandwidth promptly when it leaves; PERT does so "
    "with near-zero loss (Section 4.7: 'results are similar')."
)

#: full tier only: the settling times need the 20 s phases
QUICK = None

COLUMNS = ("scheme", "concede_s", "reclaim_s", "drops_squeeze", "drops_total")


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
    sim = Simulator(seed=seed)
    spec, sender_kwargs, db = scheme_dumbbell(
        scheme, sim, bandwidth, rtt, n_flows, n_flows + 1, pkt_size)
    drop_log = DropLog(db.bottleneck_queue)
    flow_ids = itertools.count()
    flows = []
    for i in range(n_flows):
        fid = next(flow_ids)
        sender, sink = connect_flow(
            sim, db.left[i], db.right[i], flow_id=fid,
            sender_cls=spec.sender_cls, pkt_size=pkt_size, **sender_kwargs,
        )
        sender.start(at=0.1 * i)
        flows.append((sender, sink))

    cbr = CbrSource(sim, db.left[n_flows], dst=db.right[n_flows].node_id,
                    flow_id=next(flow_ids),
                    rate_bps=cbr_fraction * bandwidth, pkt_size=pkt_size)
    CbrSink(db.right[n_flows], flow_id=cbr.flow_id)
    sim.schedule_at(t_on, cbr.start)
    sim.schedule_at(t_off, cbr.stop)

    times: List[float] = []
    agg_rates: List[float] = []
    last = [sink.rcv_next for _, sink in flows]

    def sample() -> None:
        times.append(sim.now)
        cur = [sink.rcv_next for _, sink in flows]
        delivered = sum(c - l for c, l in zip(cur, last))
        last[:] = cur
        agg_rates.append(delivered * pkt_size * 8.0 / sample_interval)
        if sim.now < duration:
            sim.schedule(sample_interval, sample)

    sim.schedule(sample_interval, sample)
    sim.run(until=duration)
    return {
        "scheme": scheme,
        "times": times,
        "agg_rates_bps": agg_rates,
        "bandwidth": bandwidth,
        "cbr_fraction": cbr_fraction,
        "t_on": t_on,
        "t_off": t_off,
        "drops_during_squeeze": drop_log.count(start=t_on, end=t_off),
        "drops_total": drop_log.count(),
    }


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
    """Every scheme through the squeeze; *kwargs* as for :func:`run_cbr_dynamics`."""
    rows = []
    for scheme in schemes:
        res = run_cbr_dynamics(scheme, **kwargs)
        st = phase_settling_times(res)
        rows.append({
            "scheme": scheme,
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


def tables(rows: List[Dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, COLUMNS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
