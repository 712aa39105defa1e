"""Section 2 measurement study: traffic cases and tagged-flow traces.

The paper's Section 2 builds six traffic cases on a single-bottleneck
topology — combinations of {50, 100} long-term flows (split between the
two directions) and {100, 500, 1000} web sessions — and observes one
tagged long-term flow, collecting its per-ACK RTT samples, its own loss
events, and all drops at the bottleneck queue.  Figures 2, 3 and 4 are
all computed from these traces.

This module produces the same artefacts at a configurable scale: the
default ``TrafficCase`` grid divides flow counts and web sessions by ~5
and the bandwidth by ~6 relative to the paper, keeping per-flow windows
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..runner import JobSpec, run_jobs
from ..sim.monitors import nearest_sample
from .common import bound_params, run_dumbbell
from .sweep import job_values

__all__ = [
    "TrafficCase",
    "default_cases",
    "QUICK_CASES",
    "case_trace_job",
    "collect_case_trace",
    "collect_all_cases",
    "CaseTrace",
]

#: dotted-path job kind of :func:`case_trace_job`
_TRACE_KIND = "repro.experiments.section2:case_trace_job"


@dataclass(frozen=True)
class TrafficCase:
    """One Section 2 load case (paper: case1..case6)."""

    name: str
    n_fwd: int
    n_rev: int
    web_sessions: int


def default_cases(scale: float = 1.0) -> List[TrafficCase]:
    """The six paper cases, scaled down for a pure-Python substrate.

    Paper grid: {50, 100} long flows x {100, 500, 1000} web sessions on a
    100 Mbps bottleneck.  Default scale 1.0 gives {10, 20} long flows x
    {4, 10, 20} web sessions on the 16 Mbps bottleneck used by
    :func:`collect_case_trace`.
    """
    longs = [int(10 * scale) or 1, int(20 * scale) or 2]
    webs = [int(4 * scale) or 1, int(10 * scale) or 2, int(20 * scale) or 3]
    cases = []
    i = 1
    for n_long in longs:
        for web in webs:
            cases.append(
                TrafficCase(
                    name=f"case{i}",
                    n_fwd=n_long,
                    n_rev=max(1, n_long // 2),
                    web_sessions=web,
                )
            )
            i += 1
    return cases


#: the CI-sized load cases the quick tier of Figures 2-4 observes
QUICK_CASES = [TrafficCase("case1", n_fwd=5, n_rev=2, web_sessions=2),
               TrafficCase("case2", n_fwd=8, n_rev=4, web_sessions=4)]


@dataclass
class CaseTrace:
    """Artefacts of one observed-flow measurement run."""

    case: TrafficCase
    rtt_trace: List[Sequence[float]]  # (time, rtt, cwnd) per ACK
    flow_losses: List[float]
    queue_drops: List[float]
    #: the bottleneck queue sampled on a 5 ms grid over the whole run
    queue_times: List[float]
    queue_lengths: List[int]
    buffer_pkts: int
    base_rtt: float
    events_processed: int = 0

    def queue_length_at(self, t: float) -> int:
        """Bottleneck queue length at the sample nearest to time *t*."""
        return nearest_sample(self.queue_times, self.queue_lengths, t)


def case_trace_job(params: dict) -> dict:
    """Runner job: one load case's tagged-flow trace as a JSON-clean payload.

    The observed flow (forward flow 0) records every per-ACK RTT; losses
    are logged both at the flow (its own loss detections, the
    tcpdump-style view) and at the bottleneck queue (every drop) — the
    two loss definitions contrasted in Figure 2.

    As in the paper's Section 2 topology, the competing flows get a
    spread of RTTs (the observed flow keeps exactly ``rtt``), which
    desynchronizes their sawtooths.
    """
    rtt, n_fwd, warmup = params["rtt"], params["n_fwd"], params["warmup"]
    rtts = [rtt]
    for i in range(1, n_fwd):
        rtts.append(rtt * (0.6 + 1.4 * (i - 1) / max(1, n_fwd - 2)))
    # the rest of *params* are run_dumbbell keywords under their own names
    result = run_dumbbell(**params, rtts=rtts[:n_fwd], record_rtt_flow=0)
    extras = result.extras
    sampler = extras["queue_sampler"]
    return {
        "rtt_trace": [list(s) for s in extras["rtt_trace"] if s[0] >= warmup],
        "flow_losses": [t for t in extras["flow_losses"] if t >= warmup],
        "queue_drops": [t for t in extras["queue_drops"] if t >= warmup],
        "queue_times": sampler.times,
        "queue_lengths": sampler.lengths,
        "buffer_pkts": result.buffer_pkts,
        "base_rtt": result.rtt,
        "events_processed": result.events_processed,
    }


def collect_all_cases(
    cases: Optional[List[TrafficCase]] = None,
    *,
    bandwidth: float = 16e6,
    rtt: float = 0.060,
    duration: float = 60.0,
    warmup: float = 10.0,
    seed: int = 1,
    scheme: str = "sack-droptail",
) -> Dict[str, CaseTrace]:
    """Collect every case's trace through the runner; keyed by case name.

    The one collection path behind Figures 2, 3 and 4: one job per case
    (its label stays out of the cache key), so the cases run in parallel
    and the three figures — and any re-run — share the cached traces.
    """
    cases = cases if cases is not None else default_cases()
    shared = dict(bandwidth=bandwidth, rtt=rtt, duration=duration,
                  warmup=warmup, seed=seed, scheme=scheme)
    results = run_jobs([JobSpec(_TRACE_KIND, _case_params(c, shared))
                        for c in cases])
    return {case.name: CaseTrace(case=case, **payload)
            for case, payload in zip(cases, job_values(results))}


def _case_params(case: TrafficCase, shared: Dict) -> Dict:
    """:func:`case_trace_job` params: *case*'s load plus the *shared* run."""
    return dict(n_fwd=case.n_fwd, n_rev=case.n_rev,
                web_sessions=case.web_sessions, **shared)


def collect_case_trace(case: TrafficCase, **kwargs) -> CaseTrace:
    """One case, in-process and uncached; *kwargs* as for
    :func:`collect_all_cases` (``bandwidth``, ``duration``, ``scheme``...)."""
    shared = bound_params(collect_all_cases, **kwargs)
    del shared["cases"]
    return CaseTrace(case=case, **case_trace_job(_case_params(case, shared)))
