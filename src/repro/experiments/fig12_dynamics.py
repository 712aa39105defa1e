"""Figure 12: dynamic protocol behaviour under arriving/departing flows.

Paper setup: 25 PERT flows start at t = 0; every 100 s another cohort of
25 joins (to 100 flows), then cohorts leave every 100 s.  The figure
plots each cohort's aggregate throughput, showing PERT reapportioning
bandwidth quickly and fairly.  Scaled default: 4 cohorts of 5 flows with
a 15 s epoch on a 10 Mbps bottleneck.

Paper claims: cohort throughputs converge toward equal shares within
each epoch for PERT (and the SACK baselines); Vegas shows persistent
unfairness between cohorts that started at different times.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

from ..sim.engine import Simulator
from ..sim.topology import Dumbbell
from ..tcp.base import connect_flow
from .scenarios import get_scheme, scheme_sender_kwargs
from .sweep import SECTION4_SCHEMES

__all__ = ["scheme_dumbbell", "run_dynamics", "run", "cohort_share_error",
           "link_share", "validation_metrics", "tables"]

TITLE = "Figure 12 — dynamics under arriving/departing flows"

PAPER_EXPECTATION = (
    "Cohort aggregate throughputs re-converge to equal shares within "
    "each epoch for PERT; Vegas cohorts stay unequal (Figure 12)."
)

QUICK = dict(schemes=("pert", "sack-droptail"), n_cohorts=2, cohort_size=3,
             epoch=8.0, bandwidth=6e6)


def scheme_dumbbell(scheme: str, sim: Simulator, bandwidth: float, rtt: float,
                    n_flows: int, n_hosts: int, pkt_size: int):
    """A symmetric *n_hosts*-pair dumbbell under *scheme*, sized for *n_flows*.

    The paper's buffer rule (one BDP, floor of two packets per flow) and
    a quarter of the RTT on the bottleneck, for the dynamics experiments
    that drive their own arrival pattern instead of ``run_dumbbell``'s.
    Returns ``(scheme spec, sender kwargs, dumbbell)``.
    """
    spec = get_scheme(scheme)
    buffer_pkts = max(int(round(bandwidth * rtt / (8.0 * pkt_size))),
                      2 * n_flows, 8)
    bottleneck_delay = rtt / 4.0
    access = (rtt / 2.0 - bottleneck_delay) / 2.0

    def qdisc():
        return spec.make_qdisc(sim, buffer_pkts, bandwidth, pkt_size,
                               n_flows, rtt)

    db = Dumbbell(
        sim, n_left=n_hosts, n_right=n_hosts,
        bottleneck_bw=bandwidth, bottleneck_delay=bottleneck_delay,
        qdisc_fwd=qdisc, qdisc_rev=qdisc,
        access_delays_left=[access] * n_hosts,
        access_delays_right=[access] * n_hosts,
    )
    return spec, scheme_sender_kwargs(spec, bandwidth, pkt_size, n_flows, rtt), db


def run_dynamics(
    scheme: str,
    n_cohorts: int = 4,
    cohort_size: int = 5,
    epoch: float = 15.0,
    bandwidth: float = 10e6,
    rtt: float = 0.060,
    seed: int = 1,
    pkt_size: int = 1000,
    sample_interval: float = 1.0,
) -> Dict:
    """Staircase arrival/departure pattern; returns cohort rate series.

    Timeline: cohort k starts at ``k * epoch``; after a hold period at
    full population, cohorts stop in LIFO order, one per epoch.  Total
    simulated time: ``(2 * n_cohorts) * epoch``.
    """
    sim = Simulator(seed=seed)
    total_flows = n_cohorts * cohort_size
    spec, sender_kwargs, db = scheme_dumbbell(
        scheme, sim, bandwidth, rtt, total_flows, total_flows, pkt_size)
    flow_ids = itertools.count()
    cohorts: List[List] = []
    for k in range(n_cohorts):
        cohort = []
        for j in range(cohort_size):
            host = k * cohort_size + j
            fid = next(flow_ids)
            sender, sink = connect_flow(
                sim, db.left[host], db.right[host], flow_id=fid,
                sender_cls=spec.sender_cls, pkt_size=pkt_size, **sender_kwargs,
            )
            sender.start(at=k * epoch + 0.01 * j)
            cohort.append((sender, sink))
        cohorts.append(cohort)

    # Departures: LIFO, one cohort per epoch after the full-load period.
    depart_start = n_cohorts * epoch
    for k in range(n_cohorts - 1):
        cohort = cohorts[n_cohorts - 1 - k]

        def stop_cohort(cohort=cohort):
            for sender, _ in cohort:
                sender.stop()

        sim.schedule_at(depart_start + k * epoch, stop_cohort)

    total_time = 2 * n_cohorts * epoch
    times: List[float] = []
    series: List[List[float]] = [[] for _ in range(n_cohorts)]
    last = [[sink.rcv_next for _, sink in cohort] for cohort in cohorts]

    def sample() -> None:
        times.append(sim.now)
        for k, cohort in enumerate(cohorts):
            cur = [sink.rcv_next for _, sink in cohort]
            delivered = sum(c - l for c, l in zip(cur, last[k]))
            last[k] = cur
            series[k].append(delivered * pkt_size * 8.0 / sample_interval)
        if sim.now < total_time:
            sim.schedule(sample_interval, sample)

    sim.schedule(sample_interval, sample)
    sim.run(until=total_time)
    return {
        "scheme": scheme,
        "times": times,
        "cohort_rates_bps": series,
        "bandwidth": bandwidth,
        "epoch": epoch,
        "n_cohorts": n_cohorts,
    }


def _late_epoch_rates(result: Dict, epoch_index: int) -> List[float]:
    """Each active cohort's mean rate over the last half of an arrival epoch."""
    epoch = result["epoch"]
    t_lo = epoch_index * epoch + epoch / 2.0
    t_hi = (epoch_index + 1) * epoch
    idx = [i for i, t in enumerate(result["times"]) if t_lo < t <= t_hi]
    if not idx:
        raise ValueError("no samples in the requested epoch")
    return [
        sum(result["cohort_rates_bps"][k][i] for i in idx) / len(idx)
        for k in range(epoch_index + 1)
    ]


def cohort_share_error(result: Dict, epoch_index: int) -> float:
    """Mean relative deviation from equal shares late in an epoch.

    ``epoch_index`` counts arrival epochs (0-based); the last half of
    the epoch is evaluated, when ``epoch_index + 1`` cohorts are active.
    """
    rates = _late_epoch_rates(result, epoch_index)
    fair = result["bandwidth"] / len(rates)
    return sum(abs(r - fair) / fair for r in rates) / len(rates)


def link_share(result: Dict, epoch_index: int) -> float:
    """Fraction of the bottleneck the cohorts fill late in an epoch."""
    return sum(_late_epoch_rates(result, epoch_index)) / result["bandwidth"]


def run(schemes: Sequence[str] = SECTION4_SCHEMES, **kwargs) -> List[Dict]:
    """Every scheme through the staircase; *kwargs* as for :func:`run_dynamics`."""
    return [run_dynamics(scheme, **kwargs) for scheme in schemes]


def _epoch_rows(results: List[Dict]) -> List[Dict]:
    return [
        {"scheme": res["scheme"], "epoch": e, "active_cohorts": e + 1,
         "share_error": cohort_share_error(res, e),
         "link_share": link_share(res, e)}
        for res in results for e in range(res["n_cohorts"])
    ]


def validation_metrics(results: List[Dict]):
    """Flatten :func:`run` output for ``repro.validate``.

    Per scheme and arrival epoch: the mean relative deviation of cohort
    throughputs from equal shares late in that epoch, and how full the
    cohorts keep the link through the transition.
    """
    from ..validate.extract import rows_to_metrics

    return rows_to_metrics(_epoch_rows(results), ("share_error", "link_share"),
                           keys=("epoch",))


def tables(results: List[Dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, ("scheme", "epoch", "active_cohorts", "share_error",
                     "link_share"), _epoch_rows(results))]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
