"""Figure 3: prediction efficiency / false positives / false negatives.

Replays every Section 2 congestion predictor — the classics (CARD,
TRI-S, DUAL, Vegas, CIM) and the paper's own signals (instantaneous RTT
threshold, buffer-sized moving average, EWMA 7/8 and EWMA 0.99) — over
the tagged flow's per-ACK trace and scores each against the *queue-level*
losses using the Figure 1 state machine.

Paper claims to reproduce: Vegas is the best of the classics;
``srtt_0.99`` achieves high efficiency with low false positives *and*
low false negatives, beating both the raw signal (noisy, many false
positives) and EWMA 7/8.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..predictors import (
    CardPredictor,
    CimPredictor,
    DualPredictor,
    EwmaRttPredictor,
    InstantRttPredictor,
    MovingAverageRttPredictor,
    Predictor,
    SyncTcpPredictor,
    TcpBfaPredictor,
    TriSPredictor,
    VegasPredictor,
    score_predictor,
)
from .section2 import QUICK_CASES, CaseTrace, TrafficCase, collect_all_cases

__all__ = ["predictor_suite", "rows_from_traces", "run", "validation_metrics",
           "paper_bands", "tables"]

TITLE = "Figure 3 — congestion-predictor comparison"

PAPER_EXPECTATION = (
    "srtt_0.99 and the buffer-sized moving average dominate: high "
    "efficiency, low false positives, low false negatives.  Vegas is the "
    "best classic predictor.  The instantaneous signal is aggressive but "
    "noisy (higher false positives)."
)

QUICK = dict(cases=QUICK_CASES[:1], bandwidth=8e6, duration=20.0)

#: the per-RTT predictors of the prior work Vegas is ranked against
CLASSICS = ("card", "tri-s", "dual", "cim")


def predictor_suite(threshold: float, buffer_window: int = 750) -> List[Predictor]:
    """The Figure 3 predictor set, with RTT thresholds where applicable."""
    return [
        CardPredictor(),
        TriSPredictor(),
        DualPredictor(),
        VegasPredictor(beta=3.0),
        CimPredictor(short=8, long=96),
        SyncTcpPredictor(),
        TcpBfaPredictor(),
        InstantRttPredictor(threshold),
        MovingAverageRttPredictor(threshold, window=buffer_window),
        EwmaRttPredictor(threshold, weight=7.0 / 8.0),
        EwmaRttPredictor(threshold, weight=0.99),
    ]


def rows_from_traces(
    traces: Dict[str, CaseTrace], threshold_margin: float = 0.005
) -> List[dict]:
    """Average each predictor's scores over all traffic cases."""
    agg: Dict[str, List] = {}
    for tr in traces.values():
        if not tr.rtt_trace:
            continue
        base = min(r for _, r, _ in tr.rtt_trace)
        threshold = base + threshold_margin
        coalesce = 2.0 * tr.base_rtt
        for pred in predictor_suite(threshold, buffer_window=tr.buffer_pkts):
            counts = score_predictor(pred, tr.rtt_trace, tr.queue_drops,
                                     coalesce=coalesce)
            agg.setdefault(pred.name, []).append(counts)
    rows = []
    for name, counts_list in agg.items():
        n = len(counts_list)
        rows.append(
            {
                "predictor": name,
                "efficiency": sum(c.efficiency for c in counts_list) / n,
                "false_pos": sum(c.false_positive_rate for c in counts_list) / n,
                "false_neg": sum(c.false_negative_rate for c in counts_list) / n,
            }
        )
    return rows


def run(cases: Optional[List[TrafficCase]] = None, **kwargs) -> List[dict]:
    """Collect traces for every case and compute the Figure 3 rows.

    *kwargs* as for :func:`~repro.experiments.section2.collect_all_cases`.
    """
    return rows_from_traces(collect_all_cases(cases, **kwargs))


def validation_metrics(rows: List[dict]) -> Dict[str, float]:
    """Flatten :func:`run` output for ``repro.validate``.

    Per-predictor scores, plus Vegas' efficiency over the best *other*
    classic (a maximum no derived band id can express).
    """
    from ..validate.extract import rows_to_metrics

    out = rows_to_metrics(
        rows, metrics=("efficiency", "false_pos", "false_neg"),
        prefix_col="predictor",
    )
    if rows:
        out["vegas_vs_classics.efficiency_diff"] = out["vegas.efficiency"] - max(
            out[f"{c}.efficiency"] for c in CLASSICS)
    return out


def paper_bands(tier: str):
    """Fig. 3's claim at the full tier: srtt_0.99 dominates; Vegas is the
    best classic."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    return {
        "srtt_0.99.efficiency": paper_band(
            min=0.6, note="Fig. 3: srtt_0.99 high efficiency"),
        "srtt_0.99.false_pos": paper_band(
            max=0.4, note="Fig. 3: srtt_0.99 low false positives"),
        "srtt_0.99.false_neg": paper_band(
            max=0.4, note="Fig. 3: srtt_0.99 low false negatives"),
        "vegas.efficiency": paper_band(
            min=0.4, note="Fig. 3: Vegas best of the classic predictors"),
        "vegas_vs_classics.efficiency_diff": paper_band(
            min=-0.05,
            note="Fig. 3: Vegas at least matches CARD/TRI-S/DUAL/CIM"),
        "srtt_0.99_vs_vegas.efficiency_diff": paper_band(
            min=-0.05, note="Fig. 3: srtt_0.99 does not trail the classics"),
        "srtt_0.99_vs_instant-rtt.false_pos_diff": paper_band(
            max=0.05,
            note="Section 2.4: smoothing suppresses the raw signal's noise"),
    }


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE + " (queue-level losses)",
             ("predictor", "efficiency", "false_pos", "false_neg"), rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
