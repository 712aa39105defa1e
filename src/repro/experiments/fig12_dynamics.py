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
from functools import partial
from typing import Any, Dict, List, Sequence

from ..runner import run_jobs
from ..sim.engine import Simulator
from ..sim.monitors import ThroughputSampler
from ..traffic.ftp import start_long_flows
from .common import (PacketRun, delivered_bytes, paper_buffer_pkts,
                     run_scenario, scheme_dumbbell)
from .scenarios import scheme_at
from .sweep import SECTION4_SCHEMES, job_values, scheme_jobs

__all__ = ["run_dynamics", "dynamics_job", "build", "run",
           "cohort_share_error", "link_share", "validation_metrics",
           "paper_bands", "tables"]

TITLE = "Figure 12 — dynamics under arriving/departing flows"

PAPER_EXPECTATION = (
    "Cohort aggregate throughputs re-converge to equal shares within "
    "each epoch for PERT; Vegas cohorts stay unequal (Figure 12)."
)

QUICK = dict(schemes=("pert", "sack-droptail"), n_cohorts=2, cohort_size=3,
             epoch=8.0, bandwidth=6e6)


#: dotted-path job kind of :func:`dynamics_job`
_KIND = "repro.experiments.fig12_dynamics:dynamics_job"


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
    run = run_scenario(build, dict(
        scheme=scheme, n_cohorts=n_cohorts, cohort_size=cohort_size,
        epoch=epoch, bandwidth=bandwidth, rtt=rtt, seed=seed,
        pkt_size=pkt_size, sample_interval=sample_interval,
        warmup=0.0, duration=2 * n_cohorts * epoch,
    ))
    return run.payload(
        scheme=scheme,
        times=run.rates.times,
        cohort_rates_bps=run.rates.series,
        bandwidth=bandwidth,
        epoch=epoch,
        n_cohorts=n_cohorts,
    )


def dynamics_job(params: dict) -> Dict:
    """Runner job: one scheme's staircase (:func:`run_dynamics` keywords)."""
    return run_dynamics(**params)


def stop_flows(flows) -> None:
    """Departure event: every sender of *flows* stops offering new data."""
    for sender, _ in flows:
        sender.stop()


def build(params: Dict[str, Any], sim: Simulator) -> PacketRun:
    """One host pair per flow; cohorts arrive an epoch apart and, after a
    full-load epoch, leave LIFO one per epoch; every cohort's delivered
    bytes are sampled together."""
    n_cohorts, cohort_size = params["n_cohorts"], params["cohort_size"]
    epoch, rtt, pkt_size = params["epoch"], params["rtt"], params["pkt_size"]
    n_flows = n_cohorts * cohort_size
    qdisc, flow_kw = scheme_at(params["scheme"], params["bandwidth"], pkt_size,
                               n_flows, rtt)
    db = scheme_dumbbell(
        sim, qdisc, paper_buffer_pkts(params["bandwidth"], rtt, pkt_size, n_flows),
        params["bandwidth"], [rtt], n_flows, n_flows)
    flow_ids = itertools.count()
    cohorts = []
    for k in range(n_cohorts):
        hosts = slice(k * cohort_size, (k + 1) * cohort_size)
        cohorts.append(start_long_flows(
            sim, list(zip(db.left[hosts], db.right[hosts])), flow_ids,
            start_times=[k * epoch + 0.01 * j for j in range(cohort_size)],
            **flow_kw))
    # Departures: LIFO, one cohort per epoch after the full-load period.
    for k in range(n_cohorts - 1):
        sim.schedule_at(n_cohorts * epoch + k * epoch, stop_flows,
                        cohorts[n_cohorts - 1 - k])
    rates = ThroughputSampler(
        sim, *[partial(delivered_bytes, cohort, pkt_size) for cohort in cohorts],
        interval=params["sample_interval"])
    return PacketRun(
        params, sim, senders=[s for cohort in cohorts for s, _ in cohort],
        observed={"bottleneck.fwd": db.fwd, "bottleneck.rev": db.rev},
        rates=rates,
    )


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
    """Every scheme through the staircase, one runner job per scheme;
    *kwargs* as for :func:`run_dynamics`."""
    return job_values(run_jobs(scheme_jobs(_KIND, schemes, kwargs)))


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


def paper_bands(tier: str):
    """Fig. 12's claims at the full tier's four epochs."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    out = {}
    for e in range(4):
        out[f"pert.share_error@epoch={e}"] = paper_band(
            max=0.35,
            note="Fig. 12: cohorts re-converge to equal shares each epoch "
                 "(bound for 15 s epochs, ~125 RTTs against the paper's "
                 "100 s)")
        out[f"pert.link_share@epoch={e}"] = paper_band(
            min=0.8, note="Fig. 12: PERT keeps the pipe full through the "
                          "transitions")
    out["vegas_vs_pert.share_error_diff@epoch=3"] = paper_band(
        min=0.0, note="Fig. 12: Vegas' startup-order unfairness — worse "
                      "cohort sharing than PERT at full load")
    return out


def tables(results: List[Dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, ("scheme", "epoch", "active_cohorts", "share_error",
                     "link_share"), _epoch_rows(results))]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
