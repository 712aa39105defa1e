"""Hybrid fluid-packet validation: agreement sweep plus the 10^5-flow run.

Not a paper figure — this validates the :mod:`repro.hybrid` coupling the
paper's Section 5 fluid models make possible.  Two halves:

* **Agreement sweep** (10 - 10^3 total flows): every operating point is
  run twice at the same per-flow bandwidth — pure packet (all N flows
  simulated) and hybrid (a handful of foreground packet flows plus a
  PERT/RED fluid ensemble supplying the remaining capacity share).  If
  the coupling is faithful, queue occupancy, drops and utilization of
  the two runs agree at every overlapping scale.

* **Extreme scale** (10^5 flows): the scenario shape the packet engine
  alone could never run.  16 foreground PERT flows share a bottleneck
  with a fast-forwarded 10^5-flow fluid PERT ensemble (paced
  macro-packet injection), and the foreground flows' fairness and
  queue-delay distribution — derived from a tagged flow's per-ACK RTT
  trace — are the reported deliverable.

The background fluid model uses the *packet* PERT response-curve
parameters (T_min = 5 ms, T_max = 10 ms, p_max = 0.05, 35 % early
decrease), so both engines emulate the same control law.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core.config import PertConfig
from ..runner import JobSpec, run_jobs
from .scenarios import ScenarioPoint, ScenarioSpec
from .sweep import job_values

__all__ = [
    "spec",
    "run",
    "run_extreme",
    "extreme_job",
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
    "every overlapping flow count; at 10^5 flows the foreground PERT "
    "flows stay fair (Jain ~1) with queuing delay near the PERT "
    "response-curve equilibrium (T_max ~ 10 ms), far below droptail."
)

#: total-flow counts of the agreement sweep (log axis, like Figure 8)
DEFAULT_FLOW_COUNTS = [10, 100, 1000]

COLUMNS = ("mode", "n", "bg_share", "norm_queue", "drop_rate", "utilization",
           "jain")

QUICK = dict(flow_counts=[10, 40], duration=12.0, warmup=4.0,
             extreme_duration=12.0, extreme_warmup=4.0)

#: per-flow bottleneck share kept constant as N grows: 0.8 Mbps = 100
#: packets/s per flow at 1000-byte packets, i.e. a per-flow window of
#: ~6 packets at the 60 ms base RTT — the same mid-range operating
#: point the Figure 8 sweep covers
PER_FLOW_BW = 0.8e6

#: dotted-path job kind of :func:`extreme_job`
_EXTREME_KIND = "repro.experiments.fig_hybrid:extreme_job"

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


def background_spec(n: int, n_fg: int, **extra: Any) -> Dict[str, Any]:
    """Fluid background standing in for the ``n - n_fg`` remaining flows.

    The capacity share equals the replaced flows' fair share, so every
    foreground flow keeps the same per-flow bandwidth as in the pure
    packet run — both engines then sit at the same point of the PERT
    response curve.
    """
    bg: Dict[str, Any] = {
        "model": "pert_red",
        "share": (n - n_fg) / n,
        "n_flows": n - n_fg,
        "params": dict(MATCHED_PERT_CURVE),
    }
    bg.update(extra)
    return bg


def spec(
    flow_counts: Optional[Sequence[int]] = None,
    per_flow_bw: float = PER_FLOW_BW,
    rtt: float = 0.060,
    duration: float = 16.0,
    warmup: float = 6.0,
    seed: int = 1,
) -> ScenarioSpec:
    """Declarative agreement sweep: each flow count run packet and hybrid."""
    flow_counts = (
        list(flow_counts) if flow_counts is not None else DEFAULT_FLOW_COUNTS
    )
    points: List[ScenarioPoint] = []
    for n in flow_counts:
        bandwidth = n * per_flow_bw
        n_fg = foreground_count(n)
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


def run_extreme(
    n_flows: int = 100_000,
    n_fg: int = 16,
    per_flow_bw: float = PER_FLOW_BW,
    rtt: float = 0.060,
    duration: float = 30.0,
    warmup: float = 10.0,
    seed: int = 1,
    pkt_size: int = 1000,
    aggregate: int = 4000,
) -> Dict[str, Any]:
    """The 10^5-flow hybrid scenario; returns one result row.

    The fluid ensemble is fast-forwarded to steady state and injected as
    *paced* macro-packets (``aggregate`` fluid packets per event), so the
    event count is set by the macro rate — about 2.5 k/s here — not by
    the 10^5 flows represented.  A Poisson process would be wrong at
    this share: an open-loop M/D/1 queue at rho ~ 1 grows without bound,
    whereas the real closed-loop aggregate is smooth at this timescale.

    Foreground starts are compressed to the first two RTTs: against a
    background that never yields, the queue stands from the first few
    RTTs on, and a flow arriving later can never observe the base RTT —
    its queuing-delay estimate reads near zero and it stops responding
    (the base-RTT pollution every delay-based scheme shares).  Starting
    while the queue is still empty keeps the minimum-RTT estimate, and
    therefore the fairness measurement, meaningful.
    """
    from ..hybrid import run_hybrid_dumbbell

    bandwidth = n_flows * per_flow_bw
    bg = background_spec(
        n_flows, n_fg, aggregate=aggregate, arrival="paced",
    )
    summary = run_hybrid_dumbbell(
        "pert", bandwidth, bg,
        n_fwd=n_fg, rtt=rtt, duration=duration, warmup=warmup, seed=seed,
        pkt_size=pkt_size, start_window=2.0 * rtt,
    )
    res = summary.result
    return {
        "mode": "hybrid",
        "scheme": "pert",
        "n": n_flows,
        "bg_share": bg["share"],
        "extreme": True,
        "jain": summary.jain,
        "qdelay_ms": summary.qdelay_mean * 1e3,
        "qdelay_p50_ms": summary.qdelay_p50 * 1e3,
        "qdelay_p95_ms": summary.qdelay_p95 * 1e3,
        "utilization": res.utilization,
        "drop_rate": res.drop_rate,
        "norm_queue": res.norm_queue,
        "background_pkts": float(summary.background_pkts),
        "events_processed": res.events_processed,
    }


def extreme_job(params: dict) -> Dict[str, Any]:
    """Runner job: the extreme-scale row (:func:`run_extreme` keywords)."""
    return run_extreme(**params)


def run(
    flow_counts: Optional[Sequence[int]] = None,
    per_flow_bw: float = PER_FLOW_BW,
    rtt: float = 0.060,
    duration: float = 16.0,
    warmup: float = 6.0,
    seed: int = 1,
    include_extreme: bool = True,
    extreme_flows: int = 100_000,
    extreme_fg: int = 16,
    extreme_duration: float = 30.0,
    extreme_warmup: float = 10.0,
    extreme_aggregate: int = 4000,
) -> List[dict]:
    """Agreement sweep rows plus (optionally) the extreme-scale row."""
    rows = spec(flow_counts, per_flow_bw=per_flow_bw, rtt=rtt,
                duration=duration, warmup=warmup, seed=seed).run()
    if include_extreme:
        rows += job_values(run_jobs([JobSpec(_EXTREME_KIND, dict(
            n_flows=extreme_flows, n_fg=extreme_fg, per_flow_bw=per_flow_bw,
            rtt=rtt, duration=extreme_duration, warmup=extreme_warmup,
            seed=seed, aggregate=extreme_aggregate,
        ))]))
    return rows


def validation_metrics(rows: List[dict]) -> Dict[str, float]:
    """Flatten :func:`run` output for ``repro.validate``.

    Emits three groups: per-run pins for both engines at every sweep
    point, derived ``agree.*`` packet-vs-hybrid deltas (these carry the
    hand-set agreement bounds in the expected file), and the
    extreme-scale deliverable metrics.
    """
    from ..validate.extract import headline_metrics, metric_id

    sweep_rows = [r for r in rows if not r.get("extreme")]
    extreme_rows = [r for r in rows if r.get("extreme")]
    out = headline_metrics(sweep_rows, keys=("mode", "n"))
    by_point = {
        (r["mode"], r["n"]): r for r in sweep_rows if not r.get("failed")
    }
    for n in sorted({r["n"] for r in sweep_rows}):
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
    for r in extreme_rows:
        tags = {"n": r["n"]}
        for m in ("jain", "qdelay_ms", "qdelay_p50_ms", "qdelay_p95_ms",
                  "utilization", "drop_rate"):
            out[metric_id("pert", m, tags)] = float(r[m])
    return out


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [
        (TITLE, COLUMNS, [r for r in rows if not r.get("extreme")]),
        ("Extreme scale — foreground PERT flows over the fluid ensemble",
         ("n", "bg_share", "jain", "qdelay_ms", "qdelay_p50_ms",
          "qdelay_p95_ms", "utilization", "drop_rate"),
         [r for r in rows if r.get("extreme")]),
    ]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
