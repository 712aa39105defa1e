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

__all__ = ["run", "validation_metrics", "tables", "PAPER_TABLE"]

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


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE + " (12..120 ms)",
             ("scheme", "norm_queue", "paper_Q", "drop_rate", "utilization",
              "jain", "paper_F"), rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
