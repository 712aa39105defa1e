"""Ablations of PERT's design choices (DESIGN.md section 5).

Not paper figures; they probe the knobs the paper argues for, each a
:class:`~repro.core.config.PertConfig` field varied at one dumbbell
operating point with everything else at the paper's values:

* ``srtt_weight`` — the srtt history weight α (none, 7/8, 0.99; Section
  2.4).  With the once-per-RTT cap PERT's end-to-end metrics are robust
  across weights; what α = 0.99 buys is noise immunity of the prediction
  signal, which Figure 3 quantifies.
* ``early_decrease`` — 35 % against a gentler and a harsher decrease
  (Section 3, eq. 1): larger ones empty the queue further, 35 % keeps
  utilization high.
* ``min_response_interval_rtts`` — once per RTT against every ACK: the
  unlimited sender fires more often and pays for it in utilization.

Each variant is one cached runner job: a dotted-path kind that runs the
``dumbbell`` job under a temporarily registered PERT scheme, so no
variant is in ``SCHEMES`` outside its own run and no harness function
grows a parameter.

The figure stays although no paper figure asks for it: its 44 quick
checks are the only ones that vary the paper's own knobs (α, β and the
once-per-RTT gate) rather than the scenario, so a change that breaks
one of PERT's design choices without moving a paper figure shows here.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.config import PertConfig
from ..core.pert import PertSender
from ..runner import JobSpec, resolve_job, run_jobs
from .scenarios import SCHEMES, Scheme
from .sweep import job_values

__all__ = ["ABLATIONS", "variant_job", "run", "validation_metrics",
           "paper_bands", "tables"]

TITLE = "Ablations — PERT's design choices"

PAPER_EXPECTATION = (
    "Not a paper figure: end-to-end metrics are robust to the srtt "
    "weight once the once-per-RTT cap is active; larger early decreases "
    "empty the queue further while 35 % keeps utilization > 0.9 with "
    "~zero drops; responding per ACK fires more often and costs "
    "utilization."
)

#: PertConfig field -> the values it is run at (the paper's value among them)
ABLATIONS = {
    "srtt_weight": (0.0, 7.0 / 8.0, 0.99),
    "early_decrease": (0.15, 0.35, 0.6),
    "min_response_interval_rtts": (1.0, 0.0),
}

COLUMNS = ("knob", "value", "norm_queue", "drop_rate", "utilization", "jain",
           "early_responses")

QUICK = dict(bandwidth=6e6, n_fwd=4, web_sessions=1, duration=8.0, warmup=3.0)

_VARIANT = "pert-variant"
_KIND = "repro.experiments.ablations:variant_job"


def variant_job(params: dict) -> dict:
    """Runner job: one dumbbell point of PERT under ``PertConfig`` overrides.

    ``params["config"]`` holds the overridden fields; the rest are
    ``run_dumbbell`` keyword arguments.  The variant scheme exists in
    ``SCHEMES`` only while the point runs.
    """
    params = dict(params, scheme=_VARIANT)
    config = PertConfig(**params.pop("config"))
    SCHEMES[_VARIANT] = Scheme(_VARIANT, PertSender, SCHEMES["pert"].make_qdisc,
                               sender_kwargs={"config": config})
    try:
        return resolve_job("dumbbell")(params)
    finally:
        del SCHEMES[_VARIANT]


def run(
    bandwidth: float = 10e6,
    rtt: float = 0.060,
    n_fwd: int = 8,
    web_sessions: int = 3,
    duration: float = 40.0,
    warmup: float = 15.0,
    seed: int = 1,
) -> List[Dict]:
    """Every value of every knob at one operating point; one row each."""
    variants = [(knob, v) for knob, values in ABLATIONS.items() for v in values]
    results = run_jobs([
        JobSpec(_KIND, dict(
            config={knob: value}, bandwidth=bandwidth, rtt=rtt, n_fwd=n_fwd,
            web_sessions=web_sessions, duration=duration, warmup=warmup,
            seed=seed))
        for knob, value in variants
    ])
    return [{"knob": knob, "value": value, **{c: payload[c] for c in COLUMNS[2:]}}
            for (knob, value), payload in zip(variants, job_values(results))]


def validation_metrics(rows: List[Dict]) -> Dict[str, float]:
    """Flatten :func:`run` output for ``repro.validate``.

    ``<knob>.<metric>@value=<v>`` per variant, plus the four comparisons
    the ablations exist for (see the module docstring), each named after
    the knob it isolates.
    """
    from ..validate.extract import rows_to_metrics

    out = rows_to_metrics(rows, COLUMNS[2:], keys=("value",), prefix_col="knob")
    at = {(r["knob"], r["value"]): r for r in rows}
    raw, smoothed = at["srtt_weight", 0.0], at["srtt_weight", 0.99]
    out["srtt_weight.early_responses_ratio"] = (
        smoothed["early_responses"] / max(raw["early_responses"], 1))
    gentle, harsh = at["early_decrease", 0.15], at["early_decrease", 0.6]
    out["early_decrease.norm_queue_diff"] = (
        harsh["norm_queue"] - gentle["norm_queue"])
    limited = at["min_response_interval_rtts", 1.0]
    per_ack = at["min_response_interval_rtts", 0.0]
    out["min_response_interval_rtts.early_responses_ratio"] = (
        per_ack["early_responses"] / max(limited["early_responses"], 1))
    out["min_response_interval_rtts.utilization_diff"] = (
        limited["utilization"] - per_ack["utilization"])
    return out


def paper_bands(tier: str):
    """DESIGN.md section 5's design arguments, at the full-tier point."""
    from ..validate.bands import paper_band

    if tier != "full":
        return {}
    out = {}
    for alpha in ("0", "0.875", "0.99"):
        at = f"@value={alpha}"
        note = ("Section 2.4: with the once-per-RTT cap, end-to-end metrics "
                "are robust across srtt weights")
        out[f"srtt_weight.utilization{at}"] = paper_band(min=0.9, note=note)
        out[f"srtt_weight.drop_rate{at}"] = paper_band(max=5e-3, note=note)
        out[f"srtt_weight.jain{at}"] = paper_band(min=0.9, note=note)
    out["srtt_weight.early_responses_ratio"] = paper_band(
        max=1.2, note="smoothing can only filter, not invent, congestion "
                      "indications: srtt_0.99 responds no more than 1.2x "
                      "the raw signal")
    out["early_decrease.norm_queue_diff"] = paper_band(
        max=0.05, note="eq. (1): a 60 % decrease empties the queue at least "
                       "as far as a 15 % one")
    out["early_decrease.utilization@value=0.35"] = paper_band(
        min=0.9, note="eq. (1): 35 % keeps utilization high")
    out["early_decrease.drop_rate@value=0.35"] = paper_band(
        max=1e-3, note="eq. (1): 35 % keeps ~zero drops")
    out["min_response_interval_rtts.early_responses_ratio"] = paper_band(
        min=1.0, note="responding per ACK fires more often than once per RTT")
    out["min_response_interval_rtts.utilization_diff"] = paper_band(
        min=-0.02, note="once-per-RTT limiting costs no utilization against "
                        "per-ACK response")
    return out


def tables(rows: List[Dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(f"Ablation — {knob}", COLUMNS[1:],
             [r for r in rows if r["knob"] == knob]) for knob in ABLATIONS]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
