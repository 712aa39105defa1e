"""Cross-run analytics: compare two run directories scheme by scheme.

``python -m repro.obs diff <runA> <runB>`` answers "what changed
between these two sweeps?" from their cache entries alone — no
re-simulation, works across machines.  Each directory is one
:class:`repro.obs.rundir.RunView` fold, rolled up per scheme exactly as
the report rolls it up, and every shared scheme is
compared metric by metric (throughput, drop rate, normalized queue,
utilization, mean queue delay), with signed percent deltas and a
configurable threshold that flags — and, with ``--strict``, fails —
regressions.  Typical uses: a before/after perf check on the same
scenario matrix, or an A/B between two AQM parameterizations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .report import format_table
from .rundir import RunView

__all__ = ["DEFAULT_DIFF_METRICS", "diff_runs", "flagged_deltas", "format_diff"]

#: metrics compared per scheme, in display order
DEFAULT_DIFF_METRICS: Tuple[str, ...] = (
    "events_per_sec",
    "wall_time",
    "drop_rate",
    "norm_queue",
    "utilization",
    "queue_delay",
)


def _delta_pct(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Signed percent change from *a* to *b* (``None`` when undefined)."""
    if a is None or b is None:
        return None
    if isinstance(a, float) and math.isnan(a):
        return None
    if isinstance(b, float) and math.isnan(b):
        return None
    if a == 0:
        return 0.0 if b == 0 else None
    return 100.0 * (b - a) / abs(a)


def diff_runs(
    run_a, run_b, metrics: Sequence[str] = DEFAULT_DIFF_METRICS,
) -> dict:
    """Structured comparison of two run directories.

    Returns a JSON-clean dict::

        {
          "runs": [<a>, <b>],
          "jobs": [<n_a>, <n_b>],
          "warnings": [<skipped_a>, <skipped_b>],
          "schemes": {
            "<scheme>": {"<metric>": {"a": x, "b": y, "delta_pct": d}, ...},
          },
          "only_a": [...], "only_b": [...],
        }

    Only job records are compared (validation verdicts are not jobs);
    schemes present in only one run are listed, not compared.
    """
    sides = []
    for run_dir in (run_a, run_b):
        view = RunView(run_dir)
        view.refresh()
        sides.append(view.metrics())
    a, b = (side["schemes"] for side in sides)
    out: Dict = {
        "runs": [str(run_a), str(run_b)],
        "jobs": [side["jobs"] for side in sides],
        "warnings": [len(side["warnings"]) for side in sides],
        "schemes": {},
        "only_a": sorted(set(a) - set(b)),
        "only_b": sorted(set(b) - set(a)),
    }
    for scheme in sorted(set(a) & set(b)):
        cell: Dict[str, dict] = {}
        for metric in metrics:
            va, vb = a[scheme].get(metric), b[scheme].get(metric)
            cell[metric] = {"a": va, "b": vb, "delta_pct": _delta_pct(va, vb)}
        out["schemes"][scheme] = cell
    return out


def flagged_deltas(diff: dict, threshold_pct: float) -> List[Tuple[str, str, float]]:
    """``(scheme, metric, delta_pct)`` rows whose |delta| exceeds the threshold."""
    over = []
    for scheme, cell in diff["schemes"].items():
        for metric, entry in cell.items():
            d = entry.get("delta_pct")
            if d is not None and abs(d) > threshold_pct:
                over.append((scheme, metric, d))
    over.sort(key=lambda row: -abs(row[2]))
    return over


def _fmt(v: Optional[float]) -> str:
    if v is None:
        return "-"
    if abs(v) >= 1000:
        return f"{v:,.0f}"
    return f"{v:.4f}"


def format_diff(diff: dict, threshold_pct: float = 10.0) -> str:
    """Human-readable diff table; deltas over the threshold get a ``!``."""
    lines = [
        f"run A : {diff['runs'][0]} ({diff['jobs'][0]} jobs)",
        f"run B : {diff['runs'][1]} ({diff['jobs'][1]} jobs)",
    ]
    if any(diff.get("warnings", [0, 0])):
        lines.append(
            f"skipped unreadable files: A={diff['warnings'][0]} "
            f"B={diff['warnings'][1]}"
        )
    rows = []
    for scheme, cell in sorted(diff["schemes"].items()):
        for metric, entry in cell.items():
            d = entry["delta_pct"]
            flag = "!" if d is not None and abs(d) > threshold_pct else ""
            rows.append([
                f"{scheme}.{metric}", _fmt(entry["a"]), _fmt(entry["b"]),
                f"{d:+.2f}%{flag}" if d is not None else "-",
            ])
    lines.append(format_table(["scheme.metric", "A", "B", "delta"], rows))
    for side, schemes in (("A", diff["only_a"]), ("B", diff["only_b"])):
        if schemes:
            lines.append(f"schemes only in {side}: {', '.join(schemes)}")
    over = flagged_deltas(diff, threshold_pct)
    if over:
        lines.append(
            f"{len(over)} deltas over the +/-{threshold_pct:g}% threshold "
            f"(worst: {over[0][0]}.{over[0][1]} {over[0][2]:+.2f}%)"
        )
    else:
        lines.append(f"all deltas within +/-{threshold_pct:g}%")
    return "\n".join(lines)
