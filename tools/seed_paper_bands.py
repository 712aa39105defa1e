#!/usr/bin/env python
"""Seed the paper-sourced bands in ``src/repro/validate/expected/``.

Editorial tool: writes the ``source: "paper"`` bands — published numbers
from Bhandarkar et al. (Table 1, Figures 5 and 13) and the paper's
qualitative claims encoded as min/max bounds, many of them on derived
ratio/difference metrics ("PERT's queue below DropTail's at every
point" is ``max: 1`` on a ratio) — into the per-figure expected files,
preserving any golden bands already present.  No paper band is ever
typed into the JSON by hand; titles come from the figure registry.
Golden (repro-pinned) targets are managed separately by
``python -m repro.validate update-golden``; rerunning this script is only
needed when the *paper* interpretation in docs/VALIDATION.md changes.

A band the reproduction is known to miss carries ``known_gap`` and a
``note`` naming the mechanism (one of the ``GAP_*`` texts below; each is
explained in docs/VALIDATION.md, *Known gaps*).

Usage::

    PYTHONPATH=src python tools/seed_paper_bands.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.table1_rtts import PAPER_TABLE  # noqa: E402
from repro.validate.bands import Band  # noqa: E402
from repro.validate.suite import editable_expected, expected_path  # noqa: E402
from repro.validate.verdict import write_expected  # noqa: E402

#: the mechanisms behind every known gap (docs/VALIDATION.md, Known gaps)
GAP_SMALL_BUFFER = (
    "known gap, small-buffer regime: one BDP of buffer is 8-15 packets at "
    "1-2 Mbps, below what PERT's 5-10 ms delay thresholds and RED's 5-packet "
    "min_th need to act before overflow"
)
GAP_RESPONSE_REGION = (
    "known gap, degenerate scaled regime: below 40 ms at 16 Mbps one BDP of "
    "buffer is shorter than PERT's fixed 2*T_max = 20 ms response region, "
    "which the paper's 150 Mbps setting never enters"
)
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
GAP_WINDOWS = (
    "known gap, compressed per-flow windows: at 16 Mbps the flows hold ~10 "
    "packets each against the paper's ~100"
)
GAP_EQUALISATION = (
    "known gap, window- vs rate-equalisation: every PERT flow sees the same "
    "delay signal, so windows equalise and rates stay ~1/RTT"
)


def paper(target=None, *, abs_tol=0.0, rel_tol=0.0, min=None, max=None,
          known_gap=False, note=""):
    return Band(target=target, abs_tol=abs_tol, rel_tol=rel_tol, min=min,
                max=max, source="paper", known_gap=known_gap, note=note)


def fig5_bands() -> Dict[str, Band]:
    """Figure 5 response curve: analytic, so paper targets are exact."""
    curve = {0: 0.0, 2.5: 0.0, 5: 0.0, 7.5: 0.025, 10: 0.05, 12.5: 0.2875,
             15: 0.525, 17.5: 0.7625, 20: 1.0, 22.5: 1.0, 25: 1.0}
    note = "gentle-RED curve, T_min=5ms T_max=10ms p_max=0.05 (Fig. 5)"
    return {
        f"p@delay_ms={k:g}": paper(v, abs_tol=1e-9, rel_tol=1e-6, note=note)
        for k, v in curve.items()
    }


def fig13_bands() -> Dict[str, Band]:
    """Figure 13: stability pattern and the δ_min ≈ 0.1 s anchor."""
    out = {
        "min_delta_s@n_minus=40": paper(
            0.1, rel_tol=0.2, note="Fig. 13(a): δ_min ≈ 0.1 s at N⁻ = 40"),
        "min_delta_s@n_minus=50": paper(
            max=0.1, note="Fig. 13(a): δ_min monotonically decreasing"),
    }
    for rtt_ms, stable in ((100, 1.0), (160, 1.0), (171, 0.0)):
        verdict = "stable" if stable else "unstable"
        out[f"stable@rtt_ms={rtt_ms}"] = paper(
            stable, note=f"Fig. 13(b-d): {verdict} at R = {rtt_ms} ms")
    return out


def table1_bands() -> Dict[str, Band]:
    """Table 1 published Q/p/U/F values with documented tolerances."""
    out: Dict[str, Band] = {}
    # p is banded as an upper bound — the published drop probabilities
    # are O(1e-4..1e-6) where run-length noise dominates any point target.
    p_max = {"pert": 1e-4, "sack-droptail": 5e-3, "sack-red-ecn": 5e-3,
             "vegas": 1e-5}
    # why a published point target is out of reach at 16 Mbps, per metric
    gaps = {
        "pert.norm_queue": (
            "; known gap, scaled buffer: PERT holds 5-10 ms of queue, "
            "0.1-0.15 of a one-BDP buffer at the 66 ms mean RTT whatever "
            "the bandwidth; the published 0.28 implies a smaller buffer "
            "than the BDP rule this harness applies"),
        "sack-droptail.norm_queue": (
            f"; {GAP_WINDOWS}: a halved 10-packet window drains little of "
            "a 132-packet buffer, which stays ~3/4 full"),
        "vegas.norm_queue": (
            f"; {GAP_WINDOWS}: Vegas parks alpha..beta packets per flow "
            "whatever the bandwidth, a larger share of the scaled buffer"),
        "sack-droptail.drop_rate": (
            f"; {GAP_WINDOWS}: loss-based TCP's p ~ 1.5/W^2 is two orders "
            "of magnitude higher"),
        "sack-droptail.jain": (
            f"; {GAP_WINDOWS}: the standing queue adds ~50 ms to every "
            "flow's RTT and compresses the 12..120 ms spread, so RTT "
            "unfairness is milder than published"),
        "sack-red-ecn.jain": (
            f"; {GAP_WINDOWS}: the standing queue compresses the RTT "
            "spread, so RTT unfairness is milder than published"),
        "pert.jain": (
            f"; {GAP_EQUALISATION}, which lands PERT's rate fairness near "
            "DropTail's instead of at the published 0.86"),
    }

    def table(metric, note, **band):
        gap = gaps.get(metric, "")
        out[metric] = paper(known_gap=bool(gap), note=note + gap, **band)

    for scheme, row in PAPER_TABLE.items():
        table(f"{scheme}.norm_queue", "Table 1 Q",
              target=row["Q"], rel_tol=0.35)
        table(f"{scheme}.drop_rate", "Table 1 p (order-of-magnitude bound)",
              max=p_max[scheme])
        # one-sided: the claim is "at comparable, high utilization"; a
        # link fuller than the published ~94 % is not a fidelity failure
        table(f"{scheme}.utilization", "Table 1 U (published value - 6 %)",
              min=round(row["U"] * 0.94, 4))
        table(f"{scheme}.jain", "Table 1 F", target=row["F"], rel_tol=0.30)
    for sack in ("sack-droptail", "sack-red-ecn"):
        for metric in ("norm_queue", "drop_rate"):
            out[f"pert_vs_{sack}.{metric}_ratio"] = paper(
                max=1.0, note="Table 1: PERT queue/drops below both SACK variants")
    out["vegas_vs_sack-droptail.jain_diff"] = paper(
        min=0.1, note="Table 1: Vegas sharply reduces RTT unfairness")
    out["pert_vs_sack-droptail.jain_diff"] = paper(
        min=-0.12,
        note="floor only: the paper's claim (PERT's F well above SACK's) is "
             "the pert.jain known gap; this holds PERT at no worse than "
             "DropTail's rate fairness")
    return out


def fig2_bands() -> Dict[str, Band]:
    """Fig. 2 claim: queue-level fraction well above flow-level."""
    out: Dict[str, Band] = {}
    for case in ("case1", "case2", "case3", "case4", "case5", "case6"):
        out[f"{case}.queue_level"] = paper(
            min=0.5, note="Fig. 2: queue-level high→loss fraction ~0.6-0.9")
        out[f"{case}.flow_level"] = paper(
            max=0.5, known_gap=True,
            note="Fig. 2: flow-level fraction ~0.1-0.4; known gap, compressed "
                 "per-flow windows: holding ~5-15 packets, the tagged flow "
                 "takes part in most of the bottleneck's loss epochs, so its "
                 "own losses follow high-RTT periods almost as often as the "
                 "queue's; drop_event_ratio carries the claim at this scale")
        out[f"{case}.queue_minus_flow"] = paper(
            min=0.0,
            note="Fig. 2: queue-level fraction at or above the flow-level one")
        out[f"{case}.drop_event_ratio"] = paper(
            min=5.0,
            note="Fig. 2's point: the queue drops an order of magnitude more "
                 "often than the tagged flow observes")
    return out


def fig3_bands() -> Dict[str, Band]:
    """Fig. 3 claim: srtt_0.99 dominates; Vegas best classic."""
    return {
        "srtt_0.99.efficiency": paper(
            min=0.6, note="Fig. 3: srtt_0.99 high efficiency"),
        "srtt_0.99.false_pos": paper(
            max=0.4, note="Fig. 3: srtt_0.99 low false positives"),
        "srtt_0.99.false_neg": paper(
            max=0.4, note="Fig. 3: srtt_0.99 low false negatives"),
        "vegas.efficiency": paper(
            min=0.4, note="Fig. 3: Vegas best of the classic predictors"),
        "vegas_vs_classics.efficiency_diff": paper(
            min=-0.05,
            note="Fig. 3: Vegas at least matches CARD/TRI-S/DUAL/CIM"),
        "srtt_0.99_vs_vegas.efficiency_diff": paper(
            min=-0.05, note="Fig. 3: srtt_0.99 does not trail the classics"),
        "srtt_0.99_vs_instant-rtt.false_pos_diff": paper(
            max=0.05,
            note="Section 2.4: smoothing suppresses the raw signal's noise"),
    }


def fig4_bands() -> Dict[str, Band]:
    return {
        "false_positives.below_half_fraction": paper(
            min=0.5,
            note="Fig. 4: false-positive mass mostly below half occupancy"),
        "false_positives.samples": paper(
            min=50.0, note="enough false positives to form a PDF"),
    }


def section4_orderings(axis: str, values, queue_gaps=()) -> Dict[str, Band]:
    """What Figures 6-9 share: PERT's queue below DropTail's at every point.

    *queue_gaps* maps the points where the scaled reproduction is known
    to miss that ordering to the mechanism.
    """
    queue_gaps = dict(queue_gaps)
    out: Dict[str, Band] = {}
    for v in values:
        gap = queue_gaps.get(v, "")
        out[f"pert_vs_sack-droptail.norm_queue_ratio@{axis}={v}"] = paper(
            max=1.0, known_gap=bool(gap),
            note="PERT's queue below DropTail's at every point"
                 + (f"; {gap}" if gap else ""))
    return out


def fluid_agreement(counts, gaps=(), extrapolated=()) -> Dict[str, Band]:
    """Section 5: the fluid model predicts the packet operating point.

    A factor of two either way on the queue delay, at every flow count.
    *gaps* maps the counts known to miss it to the measured values;
    *extrapolated* lists the counts whose p* lies past the ramp.
    """
    gaps = dict(gaps)
    out: Dict[str, Band] = {}
    for n in counts:
        note = ("Sec. 5: the PERT/RED fluid model (eq. 14) predicts the "
                "packet queue delay within a factor of two")
        if n in gaps:
            note += f"; {GAP_UNSATURATED} ({gaps[n]})"
        if n in extrapolated:
            note += f"; {NOTE_RAMP_EXTRAPOLATED}"
        out[f"pert_vs_fluid.qdelay_ratio@n_fwd={n}"] = paper(
            min=0.5, max=2.0, known_gap=n in gaps, note=note)
    return out


def fig6_bands() -> Dict[str, Band]:
    bws = (1, 2, 4, 8, 16, 32)
    out = section4_orderings("bandwidth_mbps", bws)
    for bw in bws:
        at = f"@bandwidth_mbps={bw}"
        small = bw <= 2
        gap = f"; {GAP_SMALL_BUFFER}" if small else ""
        out[f"pert.drop_rate{at}"] = paper(
            max=0.01, known_gap=small,
            note="Fig. 6: proactive schemes keep ~zero loss" + gap)
        out[f"sack-red-ecn.drop_rate{at}"] = paper(
            max=0.01, known_gap=small,
            note="Fig. 6: proactive schemes keep ~zero loss" + gap)
        out[f"pert.jain{at}"] = paper(
            min=0.8, note="Fig. 6: PERT fairness stays near 1")
        out[f"sack-droptail.norm_queue{at}"] = paper(
            min=0.3, note="Fig. 6: SACK/DropTail queue stays high")
        if not small:
            out[f"pert.utilization{at}"] = paper(
                min=0.8,
                note="Fig. 6: PERT utilization dips only at small buffers")
            out[f"pert_vs_sack-droptail.drop_rate_ratio{at}"] = paper(
                max=0.2,
                note="Fig. 6: PERT's loss a fraction of DropTail's outside "
                     "the small-buffer regime (1-2 Mbps)")
    out["pert_vs_sack-droptail.mean_drop_rate_ratio"] = paper(
        max=0.2, known_gap=True,
        note="Fig. 6: PERT ~lossless against DropTail's clear loss rate; "
             f"{GAP_SMALL_BUFFER} — the 1-2 Mbps points carry the mean")
    out["vegas_vs_sack-droptail.mean_drop_rate_ratio"] = paper(
        max=0.5, note="Fig. 6: Vegas' loss well below DropTail's")
    out["pert_vs_sack-red-ecn.mean_norm_queue_ratio"] = paper(
        max=1.3, note="Fig. 6: PERT's queue similar to or below RED-ECN's")
    out["pert_vs_vegas.mean_jain_diff"] = paper(
        min=0.0, note="Fig. 6: PERT fairer than Vegas over the sweep")
    return out


def fig7_bands() -> Dict[str, Band]:
    rtts = (20, 40, 60, 120, 240, 400)
    out = section4_orderings("rtt_ms", rtts, {20: GAP_RESPONSE_REGION})
    for rtt_ms in rtts:
        at = f"@rtt_ms={rtt_ms}"
        out[f"pert.drop_rate{at}"] = paper(
            max=0.01, note="Fig. 7: PERT drop rate tracks RED-ECN (~0)")
        out[f"pert.jain{at}"] = paper(
            min=0.7, note="Fig. 7: fairness stays high across RTTs")
        out[f"pert.utilization{at}"] = paper(
            min=0.6, note="Fig. 7: utilization high, dipping at extreme RTTs")
    out["pert_vs_sack-droptail.mean_drop_rate_ratio"] = paper(
        max=1.0, note="Fig. 7: PERT's drop rate below DropTail's")
    for scheme in ("pert", "sack-red-ecn"):
        out[f"{scheme}.mean_drop_rate"] = paper(
            max=0.01, note="Fig. 7: PERT and RED-ECN both near zero loss")
    return out


def fig8_bands() -> Dict[str, Band]:
    counts = (1, 2, 5, 10, 20, 40, 80)
    out = section4_orderings("n_fwd", counts, {80: GAP_MIN_RTT})
    for n in counts:
        at = f"@n_fwd={n}"
        out[f"pert.drop_rate{at}"] = paper(
            max=0.02, note="Fig. 8: PERT drops track RED-ECN as flows grow")
        out[f"pert.jain{at}"] = paper(
            min=0.8, note="Fig. 8: Jain index high even at large flow counts")
        out[f"sack-droptail.norm_queue{at}"] = paper(
            min=0.3, note="Fig. 8: droptail queue high throughout")
    out["pert_vs_sack-droptail.drop_rate_ratio@n_fwd=80"] = paper(
        max=0.2, note="Fig. 8: even at the largest population PERT's drop "
                      "rate stays far below DropTail's")
    out["pert_vs_sack-droptail.mean_drop_rate_ratio"] = paper(
        max=0.2, note="Fig. 8: PERT near-lossless while DropTail drops")
    out["vegas.norm_queue_growth"] = paper(
        min=0.0, note="Fig. 8: Vegas' standing queue grows with the flows")
    out["pert_vs_vegas.mean_jain_diff"] = paper(
        min=0.0, note="Fig. 8: PERT fairer than Vegas over the sweep")
    out.update(fluid_agreement(counts, gaps={
        1: "ratio 0.15 at utilisation 0.85",
        2: "ratio 0.20 at utilisation 0.87",
        5: "ratio 0.48 at utilisation 0.91",
    }, extrapolated=(40, 80)))
    return out


def fig9_bands() -> Dict[str, Band]:
    sessions = (2, 4, 8, 16, 32)
    out = section4_orderings("web_sessions", sessions)
    for n in sessions:
        at = f"@web_sessions={n}"
        out[f"pert.drop_rate{at}"] = paper(
            max=0.01, note="Fig. 9: PERT keeps losses ~zero at every web load")
        out[f"pert.norm_queue{at}"] = paper(
            max=0.5, note="Fig. 9: PERT keeps the average queue low")
        out[f"pert.jain{at}"] = paper(
            min=0.7, note="Fig. 9: long-flow fairness stays high")
    out["pert.mean_drop_rate"] = paper(
        max=1e-3, note="Fig. 9: PERT ~zero drops over the web-load sweep")
    out["pert_vs_sack-droptail.mean_drop_rate_ratio"] = paper(
        max=0.2, note="Fig. 9: PERT's loss a fraction of DropTail's")
    return out


def fig11_bands() -> Dict[str, Band]:
    out: Dict[str, Band] = {}
    for hop in ("R1-R2", "R2-R3", "R3-R4", "R4-R5", "R5-R6"):
        at = f"@hop={hop}"
        out[f"pert.drop_rate{at}"] = paper(
            max=1e-3, note="Fig. 11: PERT ~zero drops on every hop")
        out[f"pert.norm_queue{at}"] = paper(
            max=0.5, note="Fig. 11: PERT low queue on every hop")
        out[f"pert.utilization{at}"] = paper(
            min=0.7, note="Fig. 11: utilization like SACK/RED-ECN")
        out[f"pert_vs_sack-droptail.norm_queue_ratio{at}"] = paper(
            max=1.0, note="Fig. 11: DropTail's queue above PERT's on every hop")
        out[f"pert_vs_sack-droptail.jain_diff{at}"] = paper(
            min=0.0, note="Fig. 11: per-hop fairness preserved relative to "
                          "DropTail")
        out[f"pert.jain{at}"] = paper(
            min=0.55, note="Fig. 11: per-hop fairness (the index mixes 1-hop "
                           "and end-to-end flows, which no scheme equalizes)")
    out["pert_vs_sack-red-ecn.mean_utilization_diff"] = paper(
        min=-0.15, note="Fig. 11: utilization comparable to router RED-ECN")
    return out


def fig12_bands() -> Dict[str, Band]:
    out: Dict[str, Band] = {}
    for e in range(4):
        out[f"pert.share_error@epoch={e}"] = paper(
            max=0.35,
            note="Fig. 12: cohorts re-converge to equal shares each epoch "
                 "(bound for 15 s epochs, ~125 RTTs against the paper's 100 s)")
        out[f"pert.link_share@epoch={e}"] = paper(
            min=0.8, note="Fig. 12: PERT keeps the pipe full through the "
                          "transitions")
    out["vegas_vs_pert.share_error_diff@epoch=3"] = paper(
        min=0.0, note="Fig. 12: Vegas' startup-order unfairness — worse "
                      "cohort sharing than PERT at full load")
    return out


def fig12b_bands() -> Dict[str, Band]:
    return {
        "pert.concede_s": paper(
            max=10.0, note="§4.7: responsive flows concede quickly"),
        "pert.reclaim_s": paper(
            max=10.0, note="§4.7: bandwidth reclaimed promptly"),
        "pert.drops_squeeze": paper(
            max=5.0, note="§4.7: PERT concedes with near-zero loss"),
        "pert_vs_sack-droptail.drops_squeeze_ratio": paper(
            max=0.1, note="§4.7: PERT absorbs the squeeze without DropTail's "
                          "loss storm"),
    }


def fig14_bands() -> Dict[str, Band]:
    out: Dict[str, Band] = {}
    for rtt_ms in (20, 60, 120, 240):
        at = f"@rtt_ms={rtt_ms}"
        out[f"pert-pi.drop_rate{at}"] = paper(
            max=0.01, note="Fig. 14: PERT-PI very effective at avoiding drops")
        out[f"pert-pi.utilization{at}"] = paper(
            min=0.7, note="Fig. 14: PERT-PI utilization matches router PI/ECN")
        out[f"pert-pi.jain{at}"] = paper(
            min=0.7, note="Fig. 14: fairness comparable to PI/ECN")
    out["pert-pi_vs_sack-pi-ecn.mean_utilization_diff"] = paper(
        min=-0.1, note="Fig. 14: utilization comparable to router PI/ECN")
    out["pert-pi_vs_sack-pi-ecn.mean_norm_queue_diff"] = paper(
        min=-0.2, max=0.2, note="Fig. 14: average queue similar to router "
                                "PI/ECN")
    out["pert-pi.mean_jain"] = paper(
        min=0.8, note="Fig. 14: fairness comparable across the sweep")
    return out


def ablations_bands() -> Dict[str, Band]:
    """DESIGN.md section 5: the design arguments, at the full-tier point."""
    out: Dict[str, Band] = {}
    for alpha in ("0", "0.875", "0.99"):
        at = f"@value={alpha}"
        note = ("Section 2.4: with the once-per-RTT cap, end-to-end metrics "
                "are robust across srtt weights")
        out[f"srtt_weight.utilization{at}"] = paper(min=0.9, note=note)
        out[f"srtt_weight.drop_rate{at}"] = paper(max=5e-3, note=note)
        out[f"srtt_weight.jain{at}"] = paper(min=0.9, note=note)
    out["srtt_weight.early_responses_ratio"] = paper(
        max=1.2, note="smoothing can only filter, not invent, congestion "
                      "indications: srtt_0.99 responds no more than 1.2x "
                      "the raw signal")
    out["early_decrease.norm_queue_diff"] = paper(
        max=0.05, note="eq. (1): a 60 % decrease empties the queue at least "
                       "as far as a 15 % one")
    out["early_decrease.utilization@value=0.35"] = paper(
        min=0.9, note="eq. (1): 35 % keeps utilization high")
    out["early_decrease.drop_rate@value=0.35"] = paper(
        max=1e-3, note="eq. (1): 35 % keeps ~zero drops")
    out["min_response_interval_rtts.early_responses_ratio"] = paper(
        min=1.0, note="responding per ACK fires more often than once per RTT")
    out["min_response_interval_rtts.utilization_diff"] = paper(
        min=-0.02, note="once-per-RTT limiting costs no utilization against "
                        "per-ACK response")
    return out


def robustness_bands() -> Dict[str, Band]:
    """The headline orderings, bounded for every seed."""
    out: Dict[str, Band] = {}
    for seed in (1, 2, 3):
        at = f"@seed={seed}"
        out[f"pert_vs_sack-droptail.norm_queue_ratio{at}"] = paper(
            max=0.6, note="every seed: PERT's queue far below DropTail's")
        out[f"pert.drop_rate{at}"] = paper(
            max=1e-3, note="every seed: near-zero drops")
        out[f"pert_vs_sack-red-ecn.drop_rate_diff{at}"] = paper(
            max=1e-3, note="every seed: drops no higher than RED-ECN's")
        out[f"pert.utilization{at}"] = paper(
            min=0.9, note="every seed: high utilization")
        out[f"pert.jain{at}"] = paper(
            min=0.95, note="every seed: fairness ~1")
        out[f"pert_vs_vegas.jain_diff{at}"] = paper(
            min=0.0, note="every seed: fairer than Vegas")
    out["pert.norm_queue_std"] = paper(
        max=0.1, note="the comparison is stable across seeds")
    out["pert.utilization_std"] = paper(
        max=0.05, note="the comparison is stable across seeds")
    return out


#: figure id -> {tier: paper bands}; fig5/fig13 run unscaled at both tiers,
#: so their paper bands apply to both, and fig8's fluid agreement is a
#: claim at every operating point, so it is banded at both too.
PAPER_BANDS = {
    "fig2": {"full": fig2_bands()},
    "fig3": {"full": fig3_bands()},
    "fig4": {"full": fig4_bands()},
    "fig5": {"quick": fig5_bands(), "full": fig5_bands()},
    "fig6": {"full": fig6_bands()},
    "fig7": {"full": fig7_bands()},
    "fig8": {"quick": fluid_agreement((2, 12), extrapolated=(12,)),
             "full": fig8_bands()},
    "fig9": {"full": fig9_bands()},
    "table1": {"full": table1_bands()},
    "fig11": {"full": fig11_bands()},
    "fig12": {"full": fig12_bands()},
    "fig12b": {"full": fig12b_bands()},
    "fig13": {"quick": fig13_bands(), "full": fig13_bands()},
    "fig14": {"full": fig14_bands()},
    "ablations": {"full": ablations_bands()},
    "robustness": {"full": robustness_bands()},
}


def main() -> None:
    for figure, per_tier in PAPER_BANDS.items():
        existing = editable_expected(figure)
        for tier, bands in per_tier.items():
            merged = {
                mid: band
                for mid, band in existing.bands(tier).items()
                if band.source == "golden"
            }
            merged.update(bands)
            existing.tiers[tier] = merged
        path = write_expected(existing, expected_path(figure))
        n = sum(len(b) for b in per_tier.values())
        print(f"{figure}: {n} paper bands -> {path}")


if __name__ == "__main__":
    main()
