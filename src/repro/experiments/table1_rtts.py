"""Table 1: flows with heterogeneous RTTs sharing one bottleneck.

Paper setup: 150 Mbps bottleneck shared by 10 flows with end-to-end
delays 12, 24, ..., 120 ms, plus 100 background web sessions; report
normalized queue Q, drop rate p, utilization U and Jain index F.

Paper numbers (Table 1):

    scheme          Q      p          U      F
    PERT            0.28   3.98e-06   93.81  0.86
    SACK/DropTail   0.42   7.18e-04   93.77  0.44
    SACK/RED-ECN    0.41   4.95e-04   93.90  0.51
    Vegas           0.07   0          99.99  0.98

Key qualitative claims: PERT (and Vegas) sharply reduce TCP's RTT
unfairness (F well above the loss-based stacks); PERT's queue and drops
sit below both SACK baselines at comparable utilization.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .scenarios import ScenarioPoint, ScenarioSpec
from .sweep import SECTION4_SCHEMES

__all__ = ["run", "validation_metrics", "paper_bands", "tables", "PAPER_TABLE"]

TITLE = "Table 1 — heterogeneous RTTs"

PAPER_TABLE = {
    "pert": {"Q": 0.28, "p": 3.98e-06, "U": 0.9381, "F": 0.86},
    "sack-droptail": {"Q": 0.42, "p": 7.18e-04, "U": 0.9377, "F": 0.44},
    "sack-red-ecn": {"Q": 0.41, "p": 4.95e-04, "U": 0.9390, "F": 0.51},
    "vegas": {"Q": 0.07, "p": 0.0, "U": 0.9999, "F": 0.98},
}

PAPER_EXPECTATION = (
    "PERT and Vegas reduce RTT unfairness (Jain index well above the "
    "SACK baselines); PERT queue/drops below both SACK variants."
)

#: why the scaled reproduction misses a published number (docs/VALIDATION.md,
#: Known gaps)
GAP_WINDOWS = (
    "known gap, compressed per-flow windows: at 16 Mbps the flows hold ~10 "
    "packets each against the paper's ~100"
)
GAP_EQUALISATION = (
    "known gap, window- vs rate-equalisation: every PERT flow sees the same "
    "delay signal, so windows equalise and rates stay ~1/RTT"
)

QUICK = dict(bandwidth=8e6, n_fwd=6, web_sessions=4, duration=12.0, warmup=4.0)


def default_rtts(n_flows: int = 10) -> List[float]:
    """The paper's 12, 24, ..., 120 ms end-to-end delays."""
    return [0.012 * (i + 1) for i in range(n_flows)]


def run(
    bandwidth: float = 16e6,
    n_fwd: int = 10,
    web_sessions: int = 10,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    schemes: Sequence[str] = SECTION4_SCHEMES,
    rtts: Optional[List[float]] = None,
) -> List[dict]:
    """One sweep point — the RTT vector — with the paper's Q and F beside it."""
    rtts = rtts if rtts is not None else default_rtts(n_fwd)
    rows = ScenarioSpec(
        points=[ScenarioPoint(overrides={"rtts": rtts}, tags={})],
        schemes=tuple(schemes),
        base=dict(bandwidth=bandwidth, n_fwd=n_fwd, web_sessions=web_sessions,
                  duration=duration, warmup=warmup, seed=seed),
    ).run()
    for row in rows:
        paper = PAPER_TABLE.get(row["scheme"], {})
        row["paper_Q"] = paper.get("Q", "")
        row["paper_F"] = paper.get("F", "")
    return rows


def validation_metrics(rows: List[dict]):
    """Flatten :func:`run` output for ``repro.validate`` (per-scheme Q/p/U/F)."""
    from ..validate.extract import headline_metrics

    return headline_metrics(rows)


def paper_bands(tier: str):
    """Table 1's published Q/p/U/F and its orderings, at the full tier."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    out = {}
    # p is banded as an upper bound — the published drop probabilities
    # are O(1e-4..1e-6) where run-length noise dominates any point target.
    p_max = {"pert": 1e-4, "sack-droptail": 5e-3, "sack-red-ecn": 5e-3,
             "vegas": 1e-5}
    # why a published point target is out of reach at 16 Mbps, per metric
    gaps = {
        "pert.norm_queue": (
            "; known gap, scaled buffer: PERT holds 5-10 ms of queue, "
            "0.1-0.15 of a one-BDP buffer at the 66 ms mean RTT whatever "
            "the bandwidth; the published 0.28 implies a smaller buffer "
            "than the BDP rule this harness applies"),
        "sack-droptail.norm_queue": (
            f"; {GAP_WINDOWS}: a halved 10-packet window drains little of "
            "a 132-packet buffer, which stays ~3/4 full"),
        "vegas.norm_queue": (
            f"; {GAP_WINDOWS}: Vegas parks alpha..beta packets per flow "
            "whatever the bandwidth, a larger share of the scaled buffer"),
        "sack-droptail.drop_rate": (
            f"; {GAP_WINDOWS}: loss-based TCP's p ~ 1.5/W^2 is two orders "
            "of magnitude higher"),
        "sack-droptail.jain": (
            f"; {GAP_WINDOWS}: the standing queue adds ~50 ms to every "
            "flow's RTT and compresses the 12..120 ms spread, so RTT "
            "unfairness is milder than published"),
        "sack-red-ecn.jain": (
            f"; {GAP_WINDOWS}: the standing queue compresses the RTT "
            "spread, so RTT unfairness is milder than published"),
        "pert.jain": (
            f"; {GAP_EQUALISATION}, which lands PERT's rate fairness near "
            "DropTail's instead of at the published 0.86"),
    }

    def table(metric, note, **band):
        gap = gaps.get(metric, "")
        out[metric] = paper_band(known_gap=bool(gap), note=note + gap, **band)

    for scheme, row in PAPER_TABLE.items():
        table(f"{scheme}.norm_queue", "Table 1 Q",
              target=row["Q"], rel_tol=0.35)
        table(f"{scheme}.drop_rate", "Table 1 p (order-of-magnitude bound)",
              max=p_max[scheme])
        # one-sided: the claim is "at comparable, high utilization"; a
        # link fuller than the published ~94 % is not a fidelity failure
        table(f"{scheme}.utilization", "Table 1 U (published value - 6 %)",
              min=round(row["U"] * 0.94, 4))
        table(f"{scheme}.jain", "Table 1 F", target=row["F"], rel_tol=0.30)
    for sack in ("sack-droptail", "sack-red-ecn"):
        for metric in ("norm_queue", "drop_rate"):
            out[f"pert_vs_{sack}.{metric}_ratio"] = paper_band(
                max=1.0,
                note="Table 1: PERT queue/drops below both SACK variants")
    out["vegas_vs_sack-droptail.jain_diff"] = paper_band(
        min=0.1, note="Table 1: Vegas sharply reduces RTT unfairness")
    out["pert_vs_sack-droptail.jain_diff"] = paper_band(
        min=-0.12,
        note="floor only: the paper's claim (PERT's F well above SACK's) is "
             "the pert.jain known gap; this holds PERT at no worse than "
             "DropTail's rate fairness")
    return out


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE + " (12..120 ms)",
             ("scheme", "norm_queue", "paper_Q", "drop_rate", "utilization",
              "jain", "paper_F"), rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
