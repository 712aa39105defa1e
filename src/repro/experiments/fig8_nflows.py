"""Figure 8: impact of the number of long-term flows.

Paper setup: 500 Mbps bottleneck, 60 ms RTT, flow count swept 1 - 1000
(log axis).  Scaled default: 32 Mbps with 1 - 80 flows, which spans the
same per-flow-window regimes (large windows down to ~2-3 packets).

Paper claims: PERT's queue/drops track SACK/RED-ECN as flows grow; Jain
index stays high even at large flow counts; Vegas' queue and drops grow
with the number of flows (it parks alpha..beta packets per flow) while
its fairness stays low.

Section 5 claims more: the PERT/RED fluid model (eq. 14) predicts the
packet system's operating point.  :func:`run` therefore puts the fluid
model's equilibrium queue delay beside each PERT row's measured one
(:func:`fluid_overlay`), and the gate bands their ratio.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.config import PertConfig
from ..fluid.model import make_fluid_model
from .common import bound_params, run_dumbbell
from .scenarios import ScenarioPoint, ScenarioSpec
from .sweep import SECTION4_SCHEMES, section4_orderings

__all__ = ["spec", "run", "fluid_overlay", "validation_metrics", "paper_bands",
           "tables", "DEFAULT_FLOW_COUNTS"]

TITLE = "Figure 8 — impact of the number of flows"

PAPER_EXPECTATION = (
    "PERT queue/drops similar to RED-ECN at every flow count; Vegas "
    "queue (and eventually drops) grow with flows, fairness low; "
    "droptail queue high throughout."
)

DEFAULT_FLOW_COUNTS = [1, 2, 5, 10, 20, 40, 80]

COLUMNS = ("n_fwd", "scheme", "norm_queue", "drop_rate", "utilization", "jain")
OVERLAY_COLUMNS = ("n_fwd", "qdelay_ms", "fluid_qdelay_ms")

#: why the scaled reproduction misses a claim (docs/VALIDATION.md, Known gaps)
GAP_MIN_RTT = (
    "known gap, compressed per-flow windows: at 80 flows (W* ~ 3 packets) "
    "the queue never drains, so late starters over-estimate the propagation "
    "delay (the min-RTT bias of paper Section 3); drops stay ~30x below "
    "DropTail's"
)
GAP_UNSATURATED = (
    "known gap, unsaturated link: below utilisation 1 the flows' windows do "
    "not add up to RC + q, so W* = RC/N over-states them and the fluid q* "
    "over-states the queue"
)
#: why the fluid q* at large N reads a curve the sender does not follow
NOTE_RAMP_EXTRAPOLATED = (
    "p* > p_max = 0.05: FluidModel.equilibrium() extends the linear ramp "
    "past T_max, where the sender follows gentle RED's second segment"
)

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
    """Run the sweep and overlay the fluid model; arguments as for :func:`spec`."""
    sweep = spec(*args, **kwargs)
    return fluid_overlay(sweep, sweep.run())


def fluid_overlay(sweep: ScenarioSpec, rows: List[dict]) -> List[dict]:
    """Add ``qdelay_ms`` and ``fluid_qdelay_ms`` to each PERT row of *sweep*.

    ``qdelay_ms`` is the measured mean queue in packets times one
    packet's service time, ``8 * pkt_size / bandwidth``.
    ``fluid_qdelay_ms`` is q* of the ``pert_red`` fluid model at the
    row's point: C = bandwidth / (8 * pkt_size) packets/s, N = n_fwd and
    the propagation RTT, with the packet sender's curve
    (:class:`~repro.core.config.PertConfig`: thresholds, ``p_max`` and
    the early decrease as β).  The prediction comes from the spec, not
    the run, so it adds no job and changes no cache key.  Failed rows
    are left as they are.
    """
    curve = PertConfig()
    points = {p.tags["n_fwd"]: bound_params(run_dumbbell, "pert",
                                            **sweep.kwargs_for(p))
              for p in sweep.points}
    for row in rows:
        if row["scheme"] != "pert" or row.get("failed"):
            continue
        kw = points[row["n_fwd"]]
        model = make_fluid_model(
            "pert_red", capacity=kw["bandwidth"] / (8 * kw["pkt_size"]),
            n_flows=kw["n_fwd"], rtt=kw["rtt"], t_min=curve.t_min,
            t_max=curve.t_max, p_max=curve.p_max,
            beta_decrease=curve.early_decrease, clamp=True)
        row["qdelay_ms"] = (row["mean_queue_pkts"] * 8 * kw["pkt_size"]
                            / kw["bandwidth"] * 1e3)
        row["fluid_qdelay_ms"] = model.equilibrium()[2] * 1e3
    return rows


def validation_metrics(rows: List[dict]):
    """Flatten :func:`run` output for ``repro.validate`` (per-flow-count rows).

    Adds the claims only this sweep makes: Vegas parks alpha..beta
    packets per flow, so its standing queue grows from the smallest to
    the largest population; and each PERT row's queue delay and the
    fluid model's, as ``pert.qdelay@n_fwd=N`` and ``fluid.qdelay@n_fwd=N``
    (their ratio is the derived ``pert_vs_fluid.qdelay_ratio@n_fwd=N``).
    """
    from ..validate.extract import headline_metrics, metric_id

    out = headline_metrics(rows, keys=("n_fwd",))
    vegas = [r["norm_queue"] for r in rows
             if r["scheme"] == "vegas" and not r.get("failed")]
    if vegas:
        out["vegas.norm_queue_growth"] = vegas[-1] - vegas[0]
    for r in _overlaid(rows):
        at = {"n_fwd": r["n_fwd"]}
        out[metric_id("pert", "qdelay", at)] = r["qdelay_ms"]
        out[metric_id("fluid", "qdelay", at)] = r["fluid_qdelay_ms"]
    return out


def _overlaid(rows: List[dict]) -> List[dict]:
    return [r for r in rows if "fluid_qdelay_ms" in r]


def paper_bands(tier: str):
    """Fig. 8's claims at the full tier's flow counts, and Section 5's
    fluid agreement at every tier's."""
    from ..validate.bands import paper_band

    if tier != "full":
        return _fluid_agreement((2, 12), extrapolated=(12,))
    counts = (1, 2, 5, 10, 20, 40, 80)
    out = section4_orderings("n_fwd", counts, {80: GAP_MIN_RTT})
    for n in counts:
        at = f"@n_fwd={n}"
        out[f"pert.drop_rate{at}"] = paper_band(
            max=0.02, note="Fig. 8: PERT drops track RED-ECN as flows grow")
        out[f"pert.jain{at}"] = paper_band(
            min=0.8, note="Fig. 8: Jain index high even at large flow counts")
        out[f"sack-droptail.norm_queue{at}"] = paper_band(
            min=0.3, note="Fig. 8: droptail queue high throughout")
    out["pert_vs_sack-droptail.drop_rate_ratio@n_fwd=80"] = paper_band(
        max=0.2, note="Fig. 8: even at the largest population PERT's drop "
                      "rate stays far below DropTail's")
    out["pert_vs_sack-droptail.mean_drop_rate_ratio"] = paper_band(
        max=0.2, note="Fig. 8: PERT near-lossless while DropTail drops")
    out["vegas.norm_queue_growth"] = paper_band(
        min=0.0, note="Fig. 8: Vegas' standing queue grows with the flows")
    out["pert_vs_vegas.mean_jain_diff"] = paper_band(
        min=0.0, note="Fig. 8: PERT fairer than Vegas over the sweep")
    out.update(_fluid_agreement(counts, gaps={
        1: "ratio 0.15 at utilisation 0.85",
        2: "ratio 0.20 at utilisation 0.87",
        5: "ratio 0.48 at utilisation 0.91",
    }, extrapolated=(40, 80)))
    return out


def _fluid_agreement(counts, gaps=(), extrapolated=()):
    """Section 5: the fluid model predicts the packet operating point.

    A factor of two either way on the queue delay, at every flow count.
    *gaps* maps the counts known to miss it to the measured values;
    *extrapolated* lists the counts whose p* lies past the ramp.
    """
    from ..validate.bands import paper_band

    gaps = dict(gaps)
    out = {}
    for n in counts:
        note = ("Sec. 5: the PERT/RED fluid model (eq. 14) predicts the "
                "packet queue delay within a factor of two")
        if n in gaps:
            note += f"; {GAP_UNSATURATED} ({gaps[n]})"
        if n in extrapolated:
            note += f"; {NOTE_RAMP_EXTRAPOLATED}"
        out[f"pert_vs_fluid.qdelay_ratio@n_fwd={n}"] = paper_band(
            min=0.5, max=2.0, known_gap=n in gaps, note=note)
    return out


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, COLUMNS, rows),
            ("PERT queue delay vs the fluid model (Section 5)",
             OVERLAY_COLUMNS, _overlaid(rows))]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
