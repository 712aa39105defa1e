"""Hybrid fluid-packet validation: packet vs packet + fluid agreement.

Not a paper figure — this validates the :mod:`repro.hybrid` coupling the
paper's Section 5 fluid models make possible.  Every operating point
(10 - 10^3 total flows) is run twice at the same per-flow bandwidth:
pure packet (all N flows simulated) and hybrid (a handful of foreground
packet flows plus a PERT/RED fluid ensemble supplying the remaining
capacity share).  If the coupling is faithful, queue occupancy, drops
and utilization of the two runs agree at every flow count.

The background fluid model uses the *packet* PERT response-curve
parameters (T_min = 5 ms, T_max = 10 ms, p_max = 0.05, 35 % early
decrease), so both engines emulate the same control law.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core.config import PertConfig
from .scenarios import ScenarioPoint, ScenarioSpec

__all__ = [
    "spec",
    "run",
    "validation_metrics",
    "tables",
    "DEFAULT_FLOW_COUNTS",
    "PER_FLOW_BW",
    "foreground_count",
    "background_spec",
]

TITLE = "Hybrid engine — fluid background vs packet agreement"

PAPER_EXPECTATION = (
    "hybrid runs track the pure packet runs' queue/drops/utilization at "
    "every flow count."
)

#: total-flow counts of the agreement sweep (log axis, like Figure 8)
DEFAULT_FLOW_COUNTS = [10, 100, 1000]

COLUMNS = ("mode", "n", "bg_share", "norm_queue", "drop_rate", "utilization",
           "jain")

QUICK = dict(flow_counts=[10, 40], duration=12.0, warmup=4.0)

#: per-flow bottleneck share kept constant as N grows: 0.8 Mbps = 100
#: packets/s per flow at 1000-byte packets, i.e. a per-flow window of
#: ~6 packets at the 60 ms base RTT — the same mid-range operating
#: point the Figure 8 sweep covers
PER_FLOW_BW = 0.8e6

_PERT = PertConfig()

#: fluid-model parameters matching the packet PERT sender's emulated
#: gentle-RED curve: the paper's numbers, read from where they are typed
MATCHED_PERT_CURVE: Dict[str, Any] = {
    "t_min": _PERT.t_min,
    "t_max": _PERT.t_max,
    "p_max": _PERT.p_max,
    "beta_decrease": _PERT.early_decrease,
    "clamp": True,
}


def foreground_count(n: int) -> int:
    """Packet-level foreground flows for a hybrid run of *n* total flows."""
    return max(4, min(10, n // 2))


def background_spec(n: int, n_fg: int) -> Dict[str, Any]:
    """Fluid background standing in for the ``n - n_fg`` remaining flows.

    The capacity share equals the replaced flows' fair share, so every
    foreground flow keeps the same per-flow bandwidth as in the pure
    packet run — both engines then sit at the same point of the PERT
    response curve.
    """
    return {
        "model": "pert_red",
        "share": (n - n_fg) / n,
        "n_flows": n - n_fg,
        "params": dict(MATCHED_PERT_CURVE),
    }


def spec(
    flow_counts: Optional[Sequence[int]] = None,
    per_flow_bw: float = PER_FLOW_BW,
    rtt: float = 0.060,
    duration: float = 16.0,
    warmup: float = 6.0,
    seed: int = 1,
) -> ScenarioSpec:
    """Declarative agreement sweep: each flow count run packet and hybrid.

    A flow count must leave the fluid background at least one flow
    beyond the packet foreground (:func:`foreground_count`).
    """
    flow_counts = (
        list(flow_counts) if flow_counts is not None else DEFAULT_FLOW_COUNTS
    )
    points: List[ScenarioPoint] = []
    for n in flow_counts:
        bandwidth = n * per_flow_bw
        n_fg = foreground_count(n)
        if n <= n_fg:
            raise ValueError(
                f"flow count {n} leaves no fluid background: the hybrid "
                f"run simulates {n_fg} foreground flows as packets")
        points.append(ScenarioPoint(
            overrides={"n_fwd": n, "bandwidth": bandwidth},
            tags={"mode": "packet", "n": n},
        ))
        points.append(ScenarioPoint(
            overrides={"n_fwd": n_fg, "bandwidth": bandwidth},
            tags={"mode": "hybrid", "n": n},
            background=background_spec(n, n_fg),
        ))
    return ScenarioSpec(
        points=points,
        schemes=("pert",),
        base=dict(rtt=rtt, duration=duration, warmup=warmup, seed=seed),
    )


def run(*args, **kwargs) -> List[dict]:
    """Run the agreement sweep; arguments as for :func:`spec`."""
    return spec(*args, **kwargs).run()


def validation_metrics(rows: List[dict]) -> Dict[str, float]:
    """Flatten :func:`run` output for ``repro.validate``.

    Emits per-run pins for both engines at every sweep point and the
    derived ``agree.*`` packet-vs-hybrid deltas (these carry the
    hand-set agreement bounds in the expected file).
    """
    from ..validate.extract import headline_metrics, metric_id

    out = headline_metrics(rows, keys=("mode", "n"))
    by_point = {(r["mode"], r["n"]): r for r in rows if not r.get("failed")}
    for n in sorted({r["n"] for r in rows}):
        packet = by_point.get(("packet", n))
        hybrid = by_point.get(("hybrid", n))
        if packet is None or hybrid is None:
            continue
        out[metric_id("agree", "queue_ratio", {"n": n})] = (
            hybrid["norm_queue"] / max(packet["norm_queue"], 1e-9)
        )
        out[metric_id("agree", "util_diff", {"n": n})] = (
            hybrid["utilization"] - packet["utilization"]
        )
        out[metric_id("agree", "drop_diff", {"n": n})] = (
            hybrid["drop_rate"] - packet["drop_rate"]
        )
    return out


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, COLUMNS, rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
