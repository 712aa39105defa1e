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
from .sweep import SECTION4_SCHEMES

__all__ = ["spec", "run", "validation_metrics", "tables", "DEFAULT_BANDWIDTHS"]

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


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, COLUMNS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
