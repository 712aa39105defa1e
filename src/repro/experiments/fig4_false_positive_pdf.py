"""Figure 4: queue occupancy when srtt_0.99 false positives occur.

Paper claim: false positives of the ``srtt_0.99`` predictor concentrate
at *low* normalized queue lengths (mostly below 50 % of the buffer) —
which is what justifies a RED-like response curve: respond gently when
the queue (hence the risk that the signal is wrong) is small, strongly
when it is large.

For each traffic case we find the times of false-positive high periods
and look up the bottleneck queue occupancy at those instants in the
fine-grained queue sampler, then aggregate a normalized-occupancy PDF.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..metrics.stats import histogram_pdf
from ..predictors.analysis import false_positive_samples
from ..predictors.threshold import EwmaRttPredictor
from .section2 import QUICK_CASES, CaseTrace, TrafficCase, collect_all_cases

__all__ = ["false_positive_queue_levels", "run", "validation_metrics",
           "paper_bands", "tables"]

TITLE = "Figure 4 — queue occupancy at srtt_0.99 false positives"

PAPER_EXPECTATION = (
    "The PDF mass of normalized queue length at false positives sits "
    "mostly below 0.5 (Figure 4)."
)

QUICK = dict(cases=QUICK_CASES, bandwidth=8e6, duration=20.0)


def false_positive_queue_levels(
    traces: Dict[str, CaseTrace], threshold_margin: float = 0.005
) -> List[float]:
    """Normalized queue occupancies at srtt_0.99 false-positive instants."""
    levels: List[float] = []
    for tr in traces.values():
        if not tr.rtt_trace:
            continue
        base = min(r for _, r, _ in tr.rtt_trace)
        pred = EwmaRttPredictor(base + threshold_margin, weight=0.99)
        times = false_positive_samples(pred, tr.rtt_trace, tr.queue_drops,
                                       horizon=2.0 * tr.base_rtt)
        for t in times:
            levels.append(tr.queue_length_at(t) / tr.buffer_pkts)
    return levels


def run(cases: Optional[List[TrafficCase]] = None, bins: int = 10,
        **kwargs) -> Tuple[List[dict], List[float]]:
    """Returns (PDF rows, raw normalized occupancies).

    *kwargs* as for :func:`~repro.experiments.section2.collect_all_cases`.
    """
    levels = false_positive_queue_levels(collect_all_cases(cases, **kwargs))
    pdf = histogram_pdf(levels, bins=bins, lo=0.0, hi=1.0)
    rows = [{"norm_queue_bin": c, "pdf": p} for c, p in pdf]
    return rows, levels


def validation_metrics(output: Tuple[List[dict], List[float]]) -> Dict[str, float]:
    """Flatten :func:`run` output for ``repro.validate``.

    The headline number is the paper's claim itself: the fraction of
    false positives occurring below half occupancy.  The sample count
    rides along so a silent collapse of the detector (very few false
    positives) cannot masquerade as a strong concentration.
    """
    _, levels = output
    below_half = (
        sum(1 for x in levels if x < 0.5) / len(levels) if levels else 0.0
    )
    return {
        "false_positives.below_half_fraction": below_half,
        "false_positives.samples": float(len(levels)),
    }


def paper_bands(tier: str):
    """Fig. 4's claim at the full tier: false positives sit at low
    occupancy."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    return {
        "false_positives.below_half_fraction": paper_band(
            min=0.5,
            note="Fig. 4: false-positive mass mostly below half occupancy"),
        "false_positives.samples": paper_band(
            min=50.0, note="enough false positives to form a PDF"),
    }


def tables(output: Tuple[List[dict], List[float]]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    rows, _ = output
    summary = validation_metrics(output)
    return [
        (TITLE, ("norm_queue_bin", "pdf"), rows),
        ("False positives below half occupancy", tuple(summary), [summary]),
    ]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
