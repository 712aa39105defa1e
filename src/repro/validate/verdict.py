"""Machine-readable validation verdicts and the expected-file format.

Two JSON artefacts live here:

* **expected files** (``src/repro/validate/expected/<figure>.json``,
  committed) — per-figure, per-tier bands::

      {
        "figure": "fig6",
        "title": "Figure 6 — impact of bottleneck bandwidth",
        "tiers": {
          "quick": {"metrics": {"pert.norm_queue@bandwidth_mbps=2": {...band...}}},
          "full":  {"metrics": {...}}
        }
      }

* **verdict files** (written by ``python -m repro.validate run`` under
  ``<cache>/validation/``) — the machine-readable outcome a later
  ``report``/``diff`` renders, and the input :mod:`repro.validate.docgen`
  turns into ``docs/RESULTS.md``.  Verdicts carry no timestamps or
  host facts in the fields docgen reads, so regenerated docs are
  byte-identical for identical measurements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..atomic import atomic_write
from .bands import Band, MetricCheck

__all__ = [
    "VERDICT_SCHEMA",
    "ExpectedFigure",
    "FigureVerdict",
    "Verdict",
    "load_expected",
    "write_expected",
]

#: bump when the verdict JSON layout changes incompatibly
VERDICT_SCHEMA = 1


@dataclass
class ExpectedFigure:
    """Parsed expected file: the bands one figure is validated against."""

    figure: str
    title: str
    #: tier name -> {metric id -> Band}
    tiers: Dict[str, Dict[str, Band]]
    path: Optional[Path] = None

    def bands(self, tier: str) -> Dict[str, Band]:
        """The bands of *tier* (empty when the figure skips that tier)."""
        return self.tiers.get(tier, {})

    def to_json(self) -> Dict:
        """JSON-clean dict in the committed expected-file layout."""
        return {
            "figure": self.figure,
            "title": self.title,
            "tiers": {
                tier: {"metrics": {m: b.to_json() for m, b in sorted(bands.items())}}
                for tier, bands in sorted(self.tiers.items())
            },
        }


def load_expected(path: Union[str, Path]) -> ExpectedFigure:
    """Parse one expected file, validating every band eagerly."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    tiers: Dict[str, Dict[str, Band]] = {}
    for tier, section in data.get("tiers", {}).items():
        tiers[tier] = {
            mid: Band.from_json(band)
            for mid, band in section.get("metrics", {}).items()
        }
    return ExpectedFigure(
        figure=data["figure"], title=data.get("title", data["figure"]),
        tiers=tiers, path=path,
    )


def write_expected(expected: ExpectedFigure, path: Union[str, Path]) -> Path:
    """Write an expected file with stable formatting (sorted, indented).

    Stable bytes matter: ``update-golden`` rewrites these committed
    files, and a no-change rewrite must be a no-change diff.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@dataclass
class FigureVerdict:
    """Every metric check of one figure at one tier."""

    figure: str
    title: str
    checks: List[MetricCheck] = field(default_factory=list)
    #: measured metrics the expected file does not band (informational)
    unchecked: int = 0
    #: wall seconds spent producing the measurements (not read by docgen)
    wall_time: float = 0.0
    #: check-runner failure (exception text) — fails the figure outright
    error: Optional[str] = None

    @property
    def status(self) -> str:
        """``pass`` / ``gap`` / ``fail`` rollup for the whole figure."""
        if self.error is not None or any(c.failed for c in self.checks):
            return "fail"
        if any(c.status == "gap" for c in self.checks):
            return "gap"
        return "pass"

    @property
    def failed(self) -> bool:
        """True when this figure should fail the regression gate."""
        return self.status == "fail"

    def to_json(self) -> Dict:
        """JSON-clean dict embedded in the verdict file."""
        return {
            "figure": self.figure,
            "title": self.title,
            "status": self.status,
            "error": self.error,
            "unchecked": self.unchecked,
            "wall_time": self.wall_time,
            "metrics": [
                {
                    "id": c.metric,
                    "status": c.status,
                    "measured": c.measured,
                    "deviation_pct": c.deviation_pct(),
                    "band": c.band.to_json(),
                }
                for c in self.checks
            ],
        }

    @classmethod
    def from_json(cls, data: Dict) -> "FigureVerdict":
        """Rebuild a figure verdict from its JSON dict."""
        checks = [
            MetricCheck(
                metric=m["id"],
                band=Band.from_json(m["band"]),
                measured=m["measured"],
                status=m["status"],
            )
            for m in data.get("metrics", [])
        ]
        return cls(
            figure=data["figure"], title=data.get("title", data["figure"]),
            checks=checks, unchecked=data.get("unchecked", 0),
            wall_time=data.get("wall_time", 0.0), error=data.get("error"),
        )


@dataclass
class Verdict:
    """One full validation run: tier + per-figure verdicts + rollup."""

    tier: str
    figures: List[FigureVerdict] = field(default_factory=list)

    @property
    def status(self) -> str:
        """``pass``/``gap``/``fail`` rollup across all figures."""
        if any(f.failed for f in self.figures):
            return "fail"
        if any(f.status == "gap" for f in self.figures):
            return "gap"
        return "pass"

    @property
    def failing_figures(self) -> List[str]:
        """Names of figures that fail the gate (empty when green)."""
        return [f.figure for f in self.figures if f.failed]

    def counts(self) -> Dict[str, int]:
        """Per-status totals over every metric check."""
        counts = {"pass": 0, "fail": 0, "gap": 0, "closed_gap": 0, "missing": 0}
        for fig in self.figures:
            for c in fig.checks:
                counts[c.status] = counts.get(c.status, 0) + 1
        return counts

    def to_json(self) -> Dict:
        """JSON-clean dict (the verdict-file layout)."""
        return {
            "schema": VERDICT_SCHEMA,
            "tier": self.tier,
            "status": self.status,
            "counts": self.counts(),
            "figures": [f.to_json() for f in self.figures],
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Write the verdict file (stable formatting, atomically)."""
        text = json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        return atomic_write(path, text.encode("utf-8"))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Verdict":
        """Read a verdict file written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("schema") != VERDICT_SCHEMA:
            raise ValueError(
                f"verdict schema {data.get('schema')!r} != {VERDICT_SCHEMA} "
                f"(re-run `python -m repro.validate run`)"
            )
        return cls(
            tier=data["tier"],
            figures=[FigureVerdict.from_json(f) for f in data.get("figures", [])],
        )
