"""Figure 9: impact of web (bursty) traffic.

Paper setup: 150 Mbps bottleneck, 60 ms RTT, 50 long flows, web sessions
swept 10 - 1000 (log axis).  Scaled default: 10 Mbps, 8 long flows, 2-32
sessions — the web load fraction of link capacity spans a similar range.

Paper claims: as web load grows, PERT keeps the average queue low and
losses ~zero, like SACK/RED-ECN; PERT utilization slightly below
RED-ECN; long-flow fairness stays high.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .scenarios import ScenarioPoint, ScenarioSpec
from .sweep import SECTION4_SCHEMES, section4_orderings

__all__ = ["spec", "run", "validation_metrics", "paper_bands", "tables",
           "DEFAULT_SESSION_COUNTS"]

TITLE = "Figure 9 — impact of web traffic"

PAPER_EXPECTATION = (
    "PERT: low queue and ~zero drops at every web load, like RED-ECN; "
    "utilization slightly below RED-ECN; long-flow Jain index high."
)

DEFAULT_SESSION_COUNTS = [2, 4, 8, 16, 32]

COLUMNS = ("web_sessions", "scheme", "norm_queue", "drop_rate", "utilization",
           "jain")

QUICK = dict(session_counts=[2, 6], bandwidth=6e6, n_fwd=4, duration=8.0,
             warmup=3.0)


def spec(
    session_counts: Optional[Sequence[int]] = None,
    bandwidth: float = 10e6,
    rtt: float = 0.060,
    n_fwd: int = 8,
    duration: float = 40.0,
    warmup: float = 15.0,
    seed: int = 1,
    schemes: Sequence[str] = SECTION4_SCHEMES,
) -> ScenarioSpec:
    """Declarative sweep spec for this figure."""
    session_counts = (
        list(session_counts) if session_counts is not None
        else DEFAULT_SESSION_COUNTS
    )
    points = [
        ScenarioPoint(overrides={"web_sessions": n}, tags={"web_sessions": n})
        for n in session_counts
    ]
    return ScenarioSpec(
        points=points,
        schemes=tuple(schemes),
        base=dict(bandwidth=bandwidth, rtt=rtt, n_fwd=n_fwd,
                  duration=duration, warmup=warmup, seed=seed),
    )


def run(*args, **kwargs) -> List[dict]:
    """Run the sweep; arguments as for :func:`spec`."""
    return spec(*args, **kwargs).run()


def validation_metrics(rows: List[dict]):
    """Flatten :func:`run` output for ``repro.validate`` (per-web-load rows)."""
    from ..validate.extract import headline_metrics

    return headline_metrics(rows, keys=("web_sessions",))


def paper_bands(tier: str):
    """Fig. 9's claims at the full tier's web loads."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    sessions = (2, 4, 8, 16, 32)
    out = section4_orderings("web_sessions", sessions)
    for n in sessions:
        at = f"@web_sessions={n}"
        out[f"pert.drop_rate{at}"] = paper_band(
            max=0.01, note="Fig. 9: PERT keeps losses ~zero at every web load")
        out[f"pert.norm_queue{at}"] = paper_band(
            max=0.5, note="Fig. 9: PERT keeps the average queue low")
        out[f"pert.jain{at}"] = paper_band(
            min=0.7, note="Fig. 9: long-flow fairness stays high")
    out["pert.mean_drop_rate"] = paper_band(
        max=1e-3, note="Fig. 9: PERT ~zero drops over the web-load sweep")
    out["pert_vs_sack-droptail.mean_drop_rate_ratio"] = paper_band(
        max=0.2, note="Fig. 9: PERT's loss a fraction of DropTail's")
    return out


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, COLUMNS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
