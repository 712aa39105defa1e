"""Figure 13: fluid-model stability of PERT/RED.

(a) minimum stable sampling interval δ versus the flow lower bound N⁻
    (eq. 13), for C = 10 Mbps (1000 pkt/s), R⁺ = 200 ms, p_max = 0.1,
    T_min/T_max = 50/100 ms, α = 0.99 — monotonically decreasing,
    reaching ≈0.1 s at N⁻ = 40;

(b-d) DDE trajectories of the model (eq. 14) with C = 100 pkt/s, N = 5:
    stable and monotone at R = 100 ms, stable with decaying oscillation
    at R = 160 ms, unstable (persistent oscillation) at R = 171 ms.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..fluid.model import make_fluid_model
from ..fluid.stability import min_delta, trajectory_is_stable

__all__ = ["run_min_delta", "run_trajectories", "run", "validation_metrics",
           "paper_bands", "tables"]

TITLE = "Figure 13 — PERT/RED fluid-model stability"

PAPER_EXPECTATION = (
    "(a) min delta decreases monotonically to ~0.1 s at N-=40; "
    "(b-d) stable at R=100 and 160 ms, unstable at 171 ms."
)

#: full paper parameters at both tiers: the DDE integration is the one
#: sub-minute check whose paper numbers need no scaling
QUICK = {}

FIG13A_PARAMS = dict(capacity=1000.0, r_plus=0.2, p_max=0.1,
                     t_min=0.05, t_max=0.1, alpha=0.99)
FIG13BD_PARAMS = dict(capacity=100.0, n_flows=5, p_max=0.1,
                      t_min=0.05, t_max=0.1, alpha=0.99, delta=1e-4)
FIG13_DELAYS = (0.100, 0.160, 0.171)


def run_min_delta(n_values: Sequence[int] = (1, 2, 5, 10, 20, 30, 40, 50)
                  ) -> List[Dict]:
    """Figure 13(a): δ_min versus N⁻ (paper eq. 13)."""
    rows = []
    for n in n_values:
        rows.append({
            "n_minus": n,
            "min_delta_s": min_delta(n_minus=n, **FIG13A_PARAMS),
        })
    return rows


def run_trajectories(
    delays: Sequence[float] = FIG13_DELAYS,
    duration: float = 60.0,
    dt: float = 2e-3,
) -> List[Dict]:
    """Figure 13(b-d): classify DDE trajectories at each delay."""
    rows = []
    for r in delays:
        model = make_fluid_model("pert_red", rtt=r, **FIG13BD_PARAMS)
        sol = model.simulate(duration=duration, dt=dt)
        w_star, p_star, tq_star = model.equilibrium()
        tail = sol.component(0)[-int(1.0 / dt):]
        rows.append({
            "rtt_ms": r * 1e3,
            "stable": trajectory_is_stable(sol),
            "w_star": w_star,
            "w_tail_min": float(tail.min()),
            "w_tail_max": float(tail.max()),
        })
    return rows


def run(**kwargs) -> Dict[str, List[Dict]]:
    """Both halves of the figure; *kwargs* as for :func:`run_trajectories`."""
    return {
        "fig13a": run_min_delta(),
        "fig13bd": run_trajectories(**kwargs),
    }


def validation_metrics(output: Dict[str, List[Dict]]):
    """Flatten :func:`run` output for ``repro.validate``.

    Emits δ_min per N⁻ (Figure 13a), plus the stability verdict (1.0 =
    stable) and equilibrium window per delay (Figure 13b-d) — the
    paper's claim is precisely the stable/stable/unstable pattern.
    """
    from ..validate.extract import metric_id

    out = {}
    for row in output["fig13a"]:
        out[metric_id("", "min_delta_s", {"n_minus": row["n_minus"]})] = \
            row["min_delta_s"]
    for row in output["fig13bd"]:
        tags = {"rtt_ms": row["rtt_ms"]}
        out[metric_id("", "stable", tags)] = 1.0 if row["stable"] else 0.0
        out[metric_id("", "w_star", tags)] = row["w_star"]
    return out


def paper_bands(tier: str):
    """The stability pattern and the δ_min ≈ 0.1 s anchor, at both tiers
    (the fluid model runs unscaled)."""
    from ..validate.bands import paper_band

    out = {
        "min_delta_s@n_minus=40": paper_band(
            0.1, rel_tol=0.2,
            note="Fig. 13(a): δ_min ≈ 0.1 s at N⁻ = 40"),
        "min_delta_s@n_minus=50": paper_band(
            max=0.1, note="Fig. 13(a): δ_min monotonically decreasing"),
    }
    for rtt_ms, stable in ((100, 1.0), (160, 1.0), (171, 0.0)):
        verdict = "stable" if stable else "unstable"
        out[f"stable@rtt_ms={rtt_ms}"] = paper_band(
            stable, note=f"Fig. 13(b-d): {verdict} at R = {rtt_ms} ms")
    return out


def tables(output: Dict[str, List[Dict]]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [
        ("Figure 13(a) — minimum stable sampling interval",
         ("n_minus", "min_delta_s"), output["fig13a"]),
        ("Figure 13(b-d) — PERT/RED fluid trajectories",
         ("rtt_ms", "stable", "w_star", "w_tail_min", "w_tail_max"),
         output["fig13bd"]),
    ]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
