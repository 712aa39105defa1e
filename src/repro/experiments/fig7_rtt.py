"""Figure 7: impact of end-to-end RTT.

Paper setup: 150 Mbps bottleneck, 50 flows, RTT swept 10 ms - 1 s (log
axis).  Scaled default: 16 Mbps, 12 flows, RTT 20-400 ms; the run length
grows with RTT so every point reaches steady state.

Paper claims: PERT's queue and drop rate track SACK/RED-ECN (adaptive
RED has a small utilization edge since PERT's thresholds are fixed);
fairness stays high across the sweep.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .scenarios import ScenarioPoint, ScenarioSpec
from .sweep import SECTION4_SCHEMES, section4_orderings

__all__ = ["spec", "run", "validation_metrics", "paper_bands", "tables",
           "DEFAULT_RTTS"]

TITLE = "Figure 7 — impact of end-to-end RTT"

PAPER_EXPECTATION = (
    "Queue and drop rate of PERT similar to SACK/RED-ECN across RTTs; "
    "utilization high for all but dipping at extreme RTTs; Jain index "
    "high for PERT."
)

DEFAULT_RTTS = [0.02, 0.04, 0.06, 0.120, 0.240, 0.400]

COLUMNS = ("rtt_ms", "scheme", "norm_queue", "drop_rate", "utilization",
           "jain")

#: why the scaled reproduction misses the queue ordering at 20 ms
#: (docs/VALIDATION.md, Known gaps)
GAP_RESPONSE_REGION = (
    "known gap, degenerate scaled regime: below 40 ms at 16 Mbps one BDP of "
    "buffer is shorter than PERT's fixed 2*T_max = 20 ms response region, "
    "which the paper's 150 Mbps setting never enters"
)

QUICK = dict(rtts=[0.02, 0.05], bandwidth=8e6, n_fwd=6, base_duration=8.0)


def spec(
    rtts: Optional[Sequence[float]] = None,
    bandwidth: float = 16e6,
    n_fwd: int = 12,
    seed: int = 1,
    schemes: Sequence[str] = SECTION4_SCHEMES,
    web_sessions: int = 3,
    base_duration: float = 40.0,
) -> ScenarioSpec:
    """Declarative sweep spec for this figure.

    The run length is a per-point override — longer feedback loops need
    longer runs (~200 RTTs of steady state) — while only ``rtt_ms``
    appears as a row column.
    """
    rtts = list(rtts) if rtts is not None else DEFAULT_RTTS
    points = []
    for rtt in rtts:
        duration = max(base_duration, 300.0 * rtt)
        points.append(ScenarioPoint(
            overrides={"rtt": rtt, "duration": duration,
                       "warmup": duration * 0.375},
            tags={"rtt_ms": rtt * 1e3},
        ))
    return ScenarioSpec(
        points=points,
        schemes=tuple(schemes),
        base=dict(bandwidth=bandwidth, n_fwd=n_fwd, seed=seed,
                  web_sessions=web_sessions),
    )


def run(*args, **kwargs) -> List[dict]:
    """Run the sweep; arguments as for :func:`spec`."""
    return spec(*args, **kwargs).run()


def validation_metrics(rows: List[dict]):
    """Flatten :func:`run` output for ``repro.validate`` (per-RTT rows)."""
    from ..validate.extract import headline_metrics

    return headline_metrics(rows, keys=("rtt_ms",))


def paper_bands(tier: str):
    """Fig. 7's claims at the full tier's RTTs."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    rtts = (20, 40, 60, 120, 240, 400)
    out = section4_orderings("rtt_ms", rtts, {20: GAP_RESPONSE_REGION})
    for rtt_ms in rtts:
        at = f"@rtt_ms={rtt_ms}"
        out[f"pert.drop_rate{at}"] = paper_band(
            max=0.01, note="Fig. 7: PERT drop rate tracks RED-ECN (~0)")
        out[f"pert.jain{at}"] = paper_band(
            min=0.7, note="Fig. 7: fairness stays high across RTTs")
        out[f"pert.utilization{at}"] = paper_band(
            min=0.6, note="Fig. 7: utilization high, dipping at extreme RTTs")
    out["pert_vs_sack-droptail.mean_drop_rate_ratio"] = paper_band(
        max=1.0, note="Fig. 7: PERT's drop rate below DropTail's")
    for scheme in ("pert", "sack-red-ecn"):
        out[f"{scheme}.mean_drop_rate"] = paper_band(
            max=0.01, note="Fig. 7: PERT and RED-ECN both near zero loss")
    return out


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, COLUMNS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
