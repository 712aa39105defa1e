"""Seed-sweep robustness: do the paper's conclusions survive reseeding?

Every figure in this repository runs one seed per point (the
simulations are deterministic).  This module re-runs the headline
comparison over several seeds, so the paper's orderings (e.g. "PERT's
queue is below DropTail's") are bounded *for every seed* rather than for
one lucky draw, and reports per-metric means and standard deviations.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..metrics.stats import mean, stdev
from .sweep import SECTION4_SCHEMES, sweep_dumbbell

__all__ = ["run", "summarize_sweep", "validation_metrics", "paper_bands",
           "tables"]

TITLE = "Seed-sweep robustness of the headline comparison"

PAPER_EXPECTATION = (
    "Not a paper artefact: the Section 4 orderings hold for every seed — "
    "PERT's queue far below DropTail's, ~zero drops, utilization > 0.9, "
    "fairness ~1 and above Vegas' — with small cross-seed variance."
)

QUICK = dict(seeds=(1, 2), bandwidth=6e6, n_fwd=4, web_sessions=1,
             duration=8.0, warmup=3.0)


def run(
    seeds: Sequence[int] = (1, 2, 3),
    schemes: Sequence[str] = SECTION4_SCHEMES,
    bandwidth: float = 10e6,
    rtt: float = 0.060,
    n_fwd: int = 8,
    web_sessions: int = 3,
    duration: float = 40.0,
    warmup: float = 15.0,
) -> List[Dict]:
    """Every scheme at one operating point, once per seed (seed-major rows)."""
    return sweep_dumbbell(
        [{"seed": s} for s in seeds], schemes=schemes, bandwidth=bandwidth,
        rtt=rtt, n_fwd=n_fwd, web_sessions=web_sessions, duration=duration,
        warmup=warmup,
    )


def summarize_sweep(rows: List[Dict]) -> List[Dict]:
    """Mean and stdev over seeds, per scheme per headline metric."""
    from ..validate.extract import HEADLINE_METRICS

    by_scheme: Dict[str, List[Dict]] = {}
    for row in rows:
        if not row.get("failed"):
            by_scheme.setdefault(row["scheme"], []).append(row)
    out = []
    for scheme, samples in by_scheme.items():
        summary: Dict = {"scheme": scheme, "seeds": len(samples)}
        for m in HEADLINE_METRICS:
            vals = [s[m] for s in samples]
            summary[f"{m}_mean"] = mean(vals)
            summary[f"{m}_std"] = stdev(vals)
        out.append(summary)
    return out


def validation_metrics(rows: List[Dict]) -> Dict[str, float]:
    """Flatten :func:`run` output for ``repro.validate``.

    Per seed: the headline metrics (the orderings between schemes are
    bands on ids derived from them); per scheme: the cross-seed spread of
    queue and utilization.
    """
    from ..validate.extract import headline_metrics, rows_to_metrics

    out = headline_metrics(rows, keys=("seed",))
    out.update(rows_to_metrics(summarize_sweep(rows),
                               ("norm_queue_std", "utilization_std")))
    return out


def paper_bands(tier: str):
    """The headline orderings, bounded for every full-tier seed."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    out = {}
    for seed in (1, 2, 3):
        at = f"@seed={seed}"
        out[f"pert_vs_sack-droptail.norm_queue_ratio{at}"] = paper_band(
            max=0.6, note="every seed: PERT's queue far below DropTail's")
        out[f"pert.drop_rate{at}"] = paper_band(
            max=1e-3, note="every seed: near-zero drops")
        out[f"pert_vs_sack-red-ecn.drop_rate_diff{at}"] = paper_band(
            max=1e-3, note="every seed: drops no higher than RED-ECN's")
        out[f"pert.utilization{at}"] = paper_band(
            min=0.9, note="every seed: high utilization")
        out[f"pert.jain{at}"] = paper_band(
            min=0.95, note="every seed: fairness ~1")
        out[f"pert_vs_vegas.jain_diff{at}"] = paper_band(
            min=0.0, note="every seed: fairer than Vegas")
    out["pert.norm_queue_std"] = paper_band(
        max=0.1, note="the comparison is stable across seeds")
    out["pert.utilization_std"] = paper_band(
        max=0.05, note="the comparison is stable across seeds")
    return out


def tables(rows: List[Dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, ("scheme", "seeds", "norm_queue_mean", "norm_queue_std",
                     "drop_rate_mean", "utilization_mean", "utilization_std",
                     "jain_mean"), summarize_sweep(rows))]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
