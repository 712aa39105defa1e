"""Figure 5: PERT's probabilistic response curve.

Purely analytic: tabulates the gentle-RED response probability over the
queuing-delay signal with the paper's parameters (T_min = 5 ms above
propagation, T_max = 10 ms, p_max = 0.05, ramp to 1 at 2*T_max).
"""

from __future__ import annotations

from typing import Dict, List

from ..core.response import GentleRedCurve

__all__ = ["run", "validation_metrics", "tables"]

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
    # 7.500000000000002 ms keys as "7.5" in the expected files.
    return {
        metric_id("", "p", {"delay_ms": round(row["queuing_delay_ms"], 6)}):
            row["probability"]
        for row in rows
    }


def tables(rows: List[dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, ("queuing_delay_ms", "probability"), rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
