"""Figure 14: emulating PI at end hosts (PERT-PI vs router PI/ECN).

Paper setup: like the Figure 7 RTT sweep, comparing PERT-PI against
router-based PI with ECN support (and implicitly PERT/RED).  PERT-PI's
controller gains come from Theorem 2, scaled by link capacity; the
target queuing delay is 3 ms.

Paper claims: PERT-PI matches router PI/ECN on utilization and average
queue, is very effective at avoiding drops, and its fairness is slightly
worse at low RTTs / slightly better at high RTTs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import fig7_rtt

__all__ = ["run", "validation_metrics", "paper_bands", "tables",
           "DEFAULT_RTTS", "FIG14_SCHEMES"]

TITLE = "Figure 14 — emulating PI at end hosts"

PAPER_EXPECTATION = (
    "PERT-PI utilization and queue similar to router PI/ECN; ~zero "
    "drops; fairness comparable (slightly worse at low RTT, slightly "
    "better at high RTT)."
)

DEFAULT_RTTS = [0.02, 0.06, 0.120, 0.240]
FIG14_SCHEMES = ("pert-pi", "sack-pi-ecn", "pert")

QUICK = dict(rtts=[0.03, 0.06], bandwidth=8e6, n_fwd=6, web_sessions=1,
             base_duration=8.0)


def run(
    rtts: Optional[Sequence[float]] = None,
    bandwidth: float = 16e6,
    n_fwd: int = 12,
    seed: int = 1,
    schemes: Sequence[str] = FIG14_SCHEMES,
    web_sessions: int = 3,
    base_duration: float = 40.0,
) -> List[dict]:
    """The Figure 7 RTT sweep (same per-RTT run lengths) over the PI schemes."""
    return fig7_rtt.spec(
        rtts if rtts is not None else DEFAULT_RTTS, bandwidth=bandwidth,
        n_fwd=n_fwd, seed=seed, schemes=schemes, web_sessions=web_sessions,
        base_duration=base_duration,
    ).run()


def validation_metrics(rows: List[dict]):
    """Flatten :func:`run` output for ``repro.validate`` (per-RTT rows)."""
    from ..validate.extract import headline_metrics

    return headline_metrics(rows, keys=("rtt_ms",))


def paper_bands(tier: str):
    """Fig. 14's claims at the full tier's RTTs."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    out = {}
    for rtt_ms in (20, 60, 120, 240):
        at = f"@rtt_ms={rtt_ms}"
        out[f"pert-pi.drop_rate{at}"] = paper_band(
            max=0.01, note="Fig. 14: PERT-PI very effective at avoiding drops")
        out[f"pert-pi.utilization{at}"] = paper_band(
            min=0.7, note="Fig. 14: PERT-PI utilization matches router PI/ECN")
        out[f"pert-pi.jain{at}"] = paper_band(
            min=0.7, note="Fig. 14: fairness comparable to PI/ECN")
    out["pert-pi_vs_sack-pi-ecn.mean_utilization_diff"] = paper_band(
        min=-0.1, note="Fig. 14: utilization comparable to router PI/ECN")
    out["pert-pi_vs_sack-pi-ecn.mean_norm_queue_diff"] = paper_band(
        min=-0.2, max=0.2, note="Fig. 14: average queue similar to router "
                                "PI/ECN")
    out["pert-pi.mean_jain"] = paper_band(
        min=0.8, note="Fig. 14: fairness comparable across the sweep")
    return out


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, fig7_rtt.COLUMNS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
