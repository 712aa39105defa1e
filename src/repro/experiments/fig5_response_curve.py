"""Figure 5: PERT's probabilistic response curve.

Purely analytic: tabulates the gentle-RED response probability over the
queuing-delay signal with the paper's parameters (T_min = 5 ms above
propagation, T_max = 10 ms, p_max = 0.05, ramp to 1 at 2*T_max).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.response import GentleRedCurve

__all__ = ["run", "validation_metrics", "paper_bands", "tables"]

TITLE = "Figure 5 — PERT response curve"

PAPER_EXPECTATION = (
    "0 below T_min; linear to p_max=0.05 at T_max; linear to 1 at "
    "2*T_max; 1 beyond (Figure 5)."
)

#: 11 points over 0-25 ms land exactly on the paper's anchor delays
#: (5/7.5/10/15/20 ms), so the bands quote Figure 5 directly; the curve
#: is analytic, so both tiers run the same points
QUICK = FULL = dict(n_points=11)


def run(n_points: int = 25, t_min: float = 0.005, t_max: float = 0.010,
        p_max: float = 0.05) -> List[dict]:
    curve = GentleRedCurve(t_min=t_min, t_max=t_max, p_max=p_max)
    hi = 2.5 * t_max
    rows = []
    for i in range(n_points):
        q = hi * i / (n_points - 1)
        rows.append({"queuing_delay_ms": q * 1e3, "probability": curve(q)})
    return rows


def validation_metrics(rows: List[dict]) -> Dict[str, float]:
    """Flatten :func:`run` output for ``repro.validate`` (p at each delay)."""
    from ..validate.extract import metric_id

    # The delay grid is computed in float; round the id tag so e.g.
    # 7.500000000000002 ms keys as "7.5" in the bands.
    return {
        metric_id("", "p", {"delay_ms": round(row["queuing_delay_ms"], 6)}):
            row["probability"]
        for row in rows
    }


def paper_bands(tier: str):
    """Figure 5's curve at its anchor delays; analytic, so exact at both
    tiers."""
    from ..validate.bands import paper_band

    curve = {0: 0.0, 2.5: 0.0, 5: 0.0, 7.5: 0.025, 10: 0.05, 12.5: 0.2875,
             15: 0.525, 17.5: 0.7625, 20: 1.0, 22.5: 1.0, 25: 1.0}
    note = "gentle-RED curve, T_min=5ms T_max=10ms p_max=0.05 (Fig. 5)"
    return {f"p@delay_ms={k:g}": paper_band(v, abs_tol=1e-9, rel_tol=1e-6,
                                            note=note)
            for k, v in curve.items()}


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, ("queuing_delay_ms", "probability"), rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
