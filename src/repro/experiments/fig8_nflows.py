"""Figure 8: impact of the number of long-term flows.

Paper setup: 500 Mbps bottleneck, 60 ms RTT, flow count swept 1 - 1000
(log axis).  Scaled default: 32 Mbps with 1 - 80 flows, which spans the
same per-flow-window regimes (large windows down to ~2-3 packets).

Paper claims: PERT's queue/drops track SACK/RED-ECN as flows grow; Jain
index stays high even at large flow counts; Vegas' queue and drops grow
with the number of flows (it parks alpha..beta packets per flow) while
its fairness stays low.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .scenarios import ScenarioPoint, ScenarioSpec
from .sweep import SECTION4_SCHEMES

__all__ = ["spec", "run", "validation_metrics", "tables", "DEFAULT_FLOW_COUNTS"]

TITLE = "Figure 8 — impact of the number of flows"

PAPER_EXPECTATION = (
    "PERT queue/drops similar to RED-ECN at every flow count; Vegas "
    "queue (and eventually drops) grow with flows, fairness low; "
    "droptail queue high throughout."
)

DEFAULT_FLOW_COUNTS = [1, 2, 5, 10, 20, 40, 80]

COLUMNS = ("n_fwd", "scheme", "norm_queue", "drop_rate", "utilization", "jain")

QUICK = dict(flow_counts=[2, 12], bandwidth=8e6, duration=8.0, warmup=3.0,
             web_sessions=1)


def spec(
    flow_counts: Optional[Sequence[int]] = None,
    bandwidth: float = 32e6,
    rtt: float = 0.060,
    duration: float = 40.0,
    warmup: float = 15.0,
    seed: int = 1,
    schemes: Sequence[str] = SECTION4_SCHEMES,
    web_sessions: int = 3,
) -> ScenarioSpec:
    """Declarative sweep spec for this figure."""
    flow_counts = (
        list(flow_counts) if flow_counts is not None else DEFAULT_FLOW_COUNTS
    )
    points = [
        ScenarioPoint(overrides={"n_fwd": n}, tags={"n_fwd": n})
        for n in flow_counts
    ]
    return ScenarioSpec(
        points=points,
        schemes=tuple(schemes),
        base=dict(bandwidth=bandwidth, rtt=rtt, duration=duration,
                  warmup=warmup, seed=seed, web_sessions=web_sessions),
    )


def run(*args, **kwargs) -> List[dict]:
    """Run the sweep; arguments as for :func:`spec`."""
    return spec(*args, **kwargs).run()


def validation_metrics(rows: List[dict]):
    """Flatten :func:`run` output for ``repro.validate`` (per-flow-count rows).

    Adds the one claim only this sweep makes: Vegas parks alpha..beta
    packets per flow, so its standing queue grows from the smallest to
    the largest population.
    """
    from ..validate.extract import headline_metrics

    out = headline_metrics(rows, keys=("n_fwd",))
    vegas = [r["norm_queue"] for r in rows
             if r["scheme"] == "vegas" and not r.get("failed")]
    if vegas:
        out["vegas.norm_queue_growth"] = vegas[-1] - vegas[0]
    return out


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, COLUMNS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
