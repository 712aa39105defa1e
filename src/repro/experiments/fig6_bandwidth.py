"""Figure 6: impact of bottleneck link bandwidth.

Paper setup: bandwidth swept 1 Mbps - 1 Gbps (log axis), RTT 60 ms, flow
count scaled with bandwidth so the link stays utilized.  Reproduced here
over a scaled log-spaced range (1-32 Mbps by default; pass a wider
``bandwidths`` list on faster hardware).

Paper claims to reproduce:

* PERT's average queue is similar to (sometimes below) SACK/RED-ECN;
* SACK/DropTail's queue stays high;
* Vegas' queue can exceed DropTail's in some cases;
* the proactive schemes (RED-ECN, PERT, Vegas) keep ~zero loss;
* PERT's utilization dips only at small bandwidths (short buffers);
* PERT fairness stays near 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .scenarios import ScenarioPoint, ScenarioSpec
from .sweep import SECTION4_SCHEMES, section4_orderings

__all__ = ["spec", "run", "validation_metrics", "paper_bands", "tables",
           "DEFAULT_BANDWIDTHS"]

TITLE = "Figure 6 — impact of bottleneck bandwidth"

PAPER_EXPECTATION = (
    "Queue: droptail high, PERT <= RED-ECN, Vegas sometimes above "
    "droptail.  Drops: ~0 for PERT/RED-ECN/Vegas, high for droptail.  "
    "Utilization: all high except PERT at the smallest buffers.  "
    "Fairness: PERT ~1, Vegas low."
)

DEFAULT_BANDWIDTHS = [1e6, 2e6, 4e6, 8e6, 16e6, 32e6]

COLUMNS = ("bandwidth_mbps", "n_fwd", "scheme", "norm_queue",
           "drop_rate", "utilization", "jain")

#: why the scaled reproduction misses a claim at 1-2 Mbps (docs/VALIDATION.md,
#: Known gaps)
GAP_SMALL_BUFFER = (
    "known gap, small-buffer regime: one BDP of buffer is 8-15 packets at "
    "1-2 Mbps, below what PERT's 5-10 ms delay thresholds and RED's 5-packet "
    "min_th need to act before overflow"
)

QUICK = dict(bandwidths=[2e6, 8e6], duration=8.0, warmup=3.0, web_sessions=1)


def _flows_for_bandwidth(bw: float) -> int:
    """Scale the flow population with bandwidth as the paper does."""
    return max(3, min(40, int(round(bw / 1e6)) * 2))


def spec(
    bandwidths: Optional[Sequence[float]] = None,
    rtt: float = 0.060,
    duration: float = 40.0,
    warmup: float = 15.0,
    seed: int = 1,
    schemes: Sequence[str] = SECTION4_SCHEMES,
    web_sessions: int = 3,
) -> ScenarioSpec:
    """Declarative sweep spec for this figure."""
    bandwidths = list(bandwidths) if bandwidths is not None else DEFAULT_BANDWIDTHS
    points = [
        ScenarioPoint(
            overrides={"bandwidth": bw, "n_fwd": _flows_for_bandwidth(bw)},
            tags={"bandwidth_mbps": bw / 1e6, "n_fwd": _flows_for_bandwidth(bw)},
        )
        for bw in bandwidths
    ]
    return ScenarioSpec(
        points=points,
        schemes=tuple(schemes),
        base=dict(rtt=rtt, duration=duration, warmup=warmup, seed=seed,
                  web_sessions=web_sessions),
    )


def run(*args, **kwargs) -> List[dict]:
    """Run the sweep; arguments as for :func:`spec`."""
    return spec(*args, **kwargs).run()


def validation_metrics(rows: List[dict]):
    """Flatten :func:`run` output for ``repro.validate`` (per-bandwidth rows)."""
    from ..validate.extract import headline_metrics

    return headline_metrics(rows, keys=("bandwidth_mbps",))


def paper_bands(tier: str):
    """Fig. 6's claims at the full tier's bandwidths."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    bws = (1, 2, 4, 8, 16, 32)
    out = section4_orderings("bandwidth_mbps", bws)
    for bw in bws:
        at = f"@bandwidth_mbps={bw}"
        small = bw <= 2
        gap = f"; {GAP_SMALL_BUFFER}" if small else ""
        out[f"pert.drop_rate{at}"] = paper_band(
            max=0.01, known_gap=small,
            note="Fig. 6: proactive schemes keep ~zero loss" + gap)
        out[f"sack-red-ecn.drop_rate{at}"] = paper_band(
            max=0.01, known_gap=small,
            note="Fig. 6: proactive schemes keep ~zero loss" + gap)
        out[f"pert.jain{at}"] = paper_band(
            min=0.8, note="Fig. 6: PERT fairness stays near 1")
        out[f"sack-droptail.norm_queue{at}"] = paper_band(
            min=0.3, note="Fig. 6: SACK/DropTail queue stays high")
        if not small:
            out[f"pert.utilization{at}"] = paper_band(
                min=0.8,
                note="Fig. 6: PERT utilization dips only at small buffers")
            out[f"pert_vs_sack-droptail.drop_rate_ratio{at}"] = paper_band(
                max=0.2,
                note="Fig. 6: PERT's loss a fraction of DropTail's outside "
                     "the small-buffer regime (1-2 Mbps)")
    out["pert_vs_sack-droptail.mean_drop_rate_ratio"] = paper_band(
        max=0.2, known_gap=True,
        note="Fig. 6: PERT ~lossless against DropTail's clear loss rate; "
             f"{GAP_SMALL_BUFFER} — the 1-2 Mbps points carry the mean")
    out["vegas_vs_sack-droptail.mean_drop_rate_ratio"] = paper_band(
        max=0.5, note="Fig. 6: Vegas' loss well below DropTail's")
    out["pert_vs_sack-red-ecn.mean_norm_queue_ratio"] = paper_band(
        max=1.3, note="Fig. 6: PERT's queue similar to or below RED-ECN's")
    out["pert_vs_vegas.mean_jain_diff"] = paper_band(
        min=0.0, note="Fig. 6: PERT fairer than Vegas over the sweep")
    return out


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, COLUMNS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
