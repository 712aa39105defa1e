"""Hybrid run entry points built on the ordinary dumbbell harness.

``run_dumbbell(..., background=...)`` already accepts a
:class:`~repro.hybrid.BackgroundLoad`; this module adds the hybrid-
specific conveniences on top: :func:`run_hybrid_dumbbell` derives the
foreground-flow queue-delay distribution the 10^5-flow deliverable
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Union

from ..experiments.common import DumbbellResult, run_dumbbell
from .background import BackgroundLoad

__all__ = [
    "HybridSummary",
    "summarize_hybrid",
    "run_hybrid_dumbbell",
]


@dataclass(frozen=True)
class HybridSummary:
    """Foreground-experience summary of one hybrid run.

    Queue-delay statistics are derived from the tagged foreground flow's
    per-ACK RTT trace (sample minus the flow's propagation delay), i.e.
    the delay a real flow *experienced* through the fluid-loaded queue —
    not a fluid prediction.
    """

    result: DumbbellResult
    #: foreground Jain fairness index (same as ``result.jain``)
    jain: float
    #: mean / median / 95th-percentile queuing delay (seconds) seen by
    #: the tagged foreground flow during the measurement window
    qdelay_mean: float
    qdelay_p50: float
    qdelay_p95: float
    #: background macro-packets injected / fluid packets represented
    background_pkts: int
    background_offered_pkts: int


def _percentile(sorted_vals: List[float], frac: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    idx = min(len(sorted_vals) - 1, max(0, int(frac * len(sorted_vals))))
    return sorted_vals[idx]


def summarize_hybrid(
    result: DumbbellResult, warmup: Optional[float] = None
) -> HybridSummary:
    """Derive the foreground queue-delay distribution from *result*.

    Requires the run to have been tagged (``record_rtt_flow=...``) so a
    per-ACK RTT trace is available; samples before *warmup* (the
    measurement-window start) are discarded when given.
    """
    trace = result.extras.get("rtt_trace")
    if not trace:
        raise ValueError(
            "hybrid summary needs a run with record_rtt_flow set "
            "(no rtt_trace in result.extras)"
        )
    base = min(r for _, r, _ in trace)
    cutoff = warmup if warmup is not None else 0.0
    window = [r - base for t, r, _ in trace if t >= cutoff]
    if not window:
        window = [r - base for _, r, _ in trace]
    window.sort()
    return HybridSummary(
        result=result,
        jain=result.jain,
        qdelay_mean=sum(window) / len(window),
        qdelay_p50=_percentile(window, 0.50),
        qdelay_p95=_percentile(window, 0.95),
        background_pkts=result.background_pkts,
        background_offered_pkts=result.extras.get("background_offered_pkts", 0),
    )


def run_hybrid_dumbbell(
    scheme: str,
    bandwidth: float,
    background: Union[BackgroundLoad, Mapping[str, Any]],
    record_rtt_flow: int = 0,
    **kwargs: Any,
) -> HybridSummary:
    """Run one hybrid dumbbell point and summarise the foreground view.

    Thin wrapper over ``run_dumbbell(..., background=...)`` that tags a
    foreground flow for RTT tracing and reduces the trace to the
    fairness / queue-delay distribution the hybrid deliverable reports.
    All other keyword arguments are forwarded unchanged.
    """
    result = run_dumbbell(
        scheme,
        bandwidth,
        background=background,
        record_rtt_flow=record_rtt_flow,
        **kwargs,
    )
    return summarize_hybrid(result, warmup=kwargs.get("warmup", 20.0))
