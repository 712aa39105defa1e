"""Generate ``docs/RESULTS.md`` from a validation verdict.

The headline results document is *never hand-maintained*:
``python -m repro.validate run --docs docs/RESULTS.md`` regenerates it
from the verdict, so the committed file is exactly what the quick tier
measures on a clean checkout.  The renderer is a pure function of the
verdict's deterministic fields (tier, metric ids, bands, measured
values) — no timestamps, host names, or wall times — which is what makes
"regenerate and ``git diff --exit-code``" a valid CI gate.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from .bands import MetricCheck
from .verdict import FigureVerdict, Verdict

__all__ = ["render_results_md", "write_results_md"]

_BADGES = {"pass": "✅ pass", "gap": "⚠️ known gap", "fail": "❌ FAIL",
           "missing": "❌ MISSING"}

_HEADER = """\
# Results — paper vs. reproduction

<!-- GENERATED FILE — do not edit.
     Regenerate with:  python -m repro.validate run --{tier} --docs docs/RESULTS.md
     Methodology and tolerance rationale:  docs/VALIDATION.md -->
"""

_TIER_BLURBS = {
    "quick": (
        "Validation tier: **quick** (CI-sized operating points; targets are "
        "goldens pinned from this reproduction — any drift outside a "
        "metric's band fails the gate).  The nightly `--full` tier compares "
        "the paper-scaled runs against Bhandarkar et al.'s published "
        "numbers instead."
    ),
    "full": (
        "Validation tier: **full** (paper-scaled operating points; targets "
        "are the paper's published numbers and claims with the tolerance "
        "bands documented in docs/VALIDATION.md)."
    ),
}


def _fmt_measured(value: Optional[float]) -> str:
    """Deterministic fixed-format rendering of a measured value."""
    if value is None:
        return "—"
    if value == 0:
        return "0"
    if abs(value) < 1e-3 or abs(value) >= 1e5:
        return f"{value:.3e}"
    return f"{value:.4f}"


def _fmt_deviation(check: MetricCheck) -> str:
    """Signed percent deviation column ("—" without a point target)."""
    dev = check.deviation_pct()
    if dev is None:
        return "—"
    return f"{dev:+.2f}%"


def _figure_section(fig: FigureVerdict) -> List[str]:
    """Render one figure's heading + metric table."""
    lines = [f"## {fig.title}", ""]
    lines.append(f"**Status: {_BADGES.get(fig.status, fig.status)}**")
    lines.append("")
    if fig.error is not None:
        lines.append(f"> check failed to run: `{fig.error}`")
        lines.append("")
        return lines
    if not fig.checks:
        lines.append("_No metrics banded at this tier._")
        lines.append("")
        return lines
    lines.append("| metric | source | band | measured | deviation | status |")
    lines.append("|---|---|---|---|---|---|")
    for c in fig.checks:
        note = f" — {c.band.note}" if c.band.note else ""
        lines.append(
            f"| `{c.metric}` | {c.band.source} | {c.band.describe()} "
            f"| {_fmt_measured(c.measured)} | {_fmt_deviation(c)} "
            f"| {_BADGES.get(c.status, c.status)}{note} |"
        )
    if fig.unchecked:
        lines.append("")
        lines.append(
            f"_{fig.unchecked} additional measured metric"
            f"{'s' if fig.unchecked != 1 else ''} carry no band at this "
            f"tier (see `python -m repro.validate diff`)._"
        )
    lines.append("")
    return lines


def render_results_md(verdict: Verdict) -> str:
    """Render the full RESULTS.md text for *verdict* (deterministic)."""
    counts = verdict.counts()
    lines: List[str] = [_HEADER.format(tier=verdict.tier), ""]
    lines.append(_TIER_BLURBS.get(verdict.tier, f"Validation tier: {verdict.tier}."))
    lines.append("")
    lines.append(
        f"**Overall: {_BADGES.get(verdict.status, verdict.status)}** — "
        f"{counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['gap']} known gaps, {counts['missing']} missing, "
        f"over {len(verdict.figures)} figures."
    )
    lines.append("")
    lines.append("| figure | status | checks | known gaps |")
    lines.append("|---|---|---|---|")
    for fig in verdict.figures:
        gaps = sum(1 for c in fig.checks if c.status == "gap")
        lines.append(
            f"| [{fig.title}](#{_anchor(fig.title)}) "
            f"| {_BADGES.get(fig.status, fig.status)} "
            f"| {len(fig.checks)} | {gaps or ''} |"
        )
    lines.append("")
    for fig in verdict.figures:
        lines.extend(_figure_section(fig))
    return "\n".join(lines).rstrip() + "\n"


def _anchor(title: str) -> str:
    """GitHub-style heading anchor for the overview table's links."""
    out = []
    for ch in title.lower():
        if ch.isalnum():
            out.append(ch)
        elif ch in (" ", "-"):
            out.append("-")
    return "".join(out)


def write_results_md(verdict: Verdict, path: Union[str, Path]) -> Path:
    """Render and write RESULTS.md for *verdict*; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = render_results_md(verdict)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path
