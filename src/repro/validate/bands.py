"""Tolerance bands: the quantitative contract behind every validation check.

A reproduced metric is never compared to the paper (or to a pinned
golden) by eyeball — each expected value carries an explicit band, and a
measurement either lands inside it or the gate fails.  This is the same
discipline AQM-parameter studies apply when tuning response curves:
quantitative targets with stated tolerances, not "the plot looks right".

A :class:`Band` supports two complementary shapes, usable together:

* **target bands** — ``target`` with ``abs_tol``/``rel_tol``; passes when
  ``|measured - target| <= abs_tol + rel_tol * |target|`` (the
  ``math.isclose`` convention, but one-sided per metric so bands are
  auditable in the expected files);
* **bound bands** — ``min``/``max`` inclusive limits, for the paper's
  qualitative claims ("drop rate ~0", "utilization stays high") where a
  point target would be false precision.

``known_gap`` marks a metric the reproduction is *known* not to hit at
the scaled operating point (documented in ``docs/VALIDATION.md``); an
out-of-band measurement then reports as ``gap`` instead of ``fail`` so
the regression gate stays green without hiding the deviation, and an
in-band one as ``closed_gap`` instead of ``pass``, so a gap that closes
is seen, not counted among the passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["Band", "MetricCheck", "check_metric"]

#: default relative tolerance for golden (repro-pinned) targets — wide
#: enough for cross-libm ulp noise, tight enough to catch any real drift
GOLDEN_REL_TOL = 1e-6
#: default absolute tolerance floor for golden targets near zero
GOLDEN_ABS_TOL = 1e-9


@dataclass(frozen=True)
class Band:
    """One metric's acceptance region (target +/- tolerance and/or bounds)."""

    target: Optional[float] = None
    abs_tol: float = 0.0
    rel_tol: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    #: "paper" (from Bhandarkar et al.'s published numbers/claims) or
    #: "golden" (pinned from this reproduction; rewritten by update-golden)
    source: str = "golden"
    #: documented known deviation: out-of-band reports as "gap", not
    #: "fail"; in-band as "closed_gap", not "pass"
    known_gap: bool = False
    note: str = ""

    def __post_init__(self):
        if self.target is None and self.min is None and self.max is None:
            raise ValueError("band needs a target, a min, or a max")
        if self.source not in ("paper", "golden"):
            raise ValueError(f"band source must be paper|golden, got {self.source!r}")

    def contains(self, measured: float) -> bool:
        """True when *measured* satisfies every constraint of the band."""
        if math.isnan(measured):
            return False
        if self.target is not None:
            allowed = self.abs_tol + self.rel_tol * abs(self.target)
            if abs(measured - self.target) > allowed:
                return False
        if self.min is not None and measured < self.min:
            return False
        if self.max is not None and measured > self.max:
            return False
        return True

    def deviation_pct(self, measured: float) -> Optional[float]:
        """Signed percent deviation from the target (None without one)."""
        if self.target is None or math.isnan(measured):
            return None
        if self.target == 0.0:
            return None
        return (measured - self.target) / abs(self.target) * 100.0

    def describe(self) -> str:
        """Human-readable band, e.g. ``0.14 ±1e-06r`` or ``≤ 0.005``."""
        bits = []
        if self.target is not None:
            tol = []
            if self.abs_tol:
                tol.append(f"±{self.abs_tol:g}")
            if self.rel_tol:
                tol.append(f"±{self.rel_tol:g}r")
            bits.append(f"{self.target:g} {' '.join(tol) if tol else '(exact)'}")
        if self.min is not None:
            bits.append(f"≥ {self.min:g}")
        if self.max is not None:
            bits.append(f"≤ {self.max:g}")
        return ", ".join(bits)

    def to_json(self) -> Dict[str, Any]:
        """JSON-clean dict for the expected files (omits defaults)."""
        out: Dict[str, Any] = {}
        if self.target is not None:
            out["target"] = self.target
            if self.abs_tol:
                out["abs_tol"] = self.abs_tol
            if self.rel_tol:
                out["rel_tol"] = self.rel_tol
        if self.min is not None:
            out["min"] = self.min
        if self.max is not None:
            out["max"] = self.max
        out["source"] = self.source
        if self.known_gap:
            out["known_gap"] = True
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Band":
        """Parse one expected-file band entry; unknown keys are rejected."""
        known = {"target", "abs_tol", "rel_tol", "min", "max", "source",
                 "known_gap", "note"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown band keys: {sorted(extra)}")
        return cls(
            target=data.get("target"),
            abs_tol=float(data.get("abs_tol", 0.0)),
            rel_tol=float(data.get("rel_tol", 0.0)),
            min=data.get("min"),
            max=data.get("max"),
            source=data.get("source", "golden"),
            known_gap=bool(data.get("known_gap", False)),
            note=data.get("note", ""),
        )


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of checking one measured metric against its band.

    ``status`` is one of ``pass``, ``fail``, ``gap`` (out of band but
    ``known_gap``), ``closed_gap`` (in band although ``known_gap``; not
    a failure), or ``missing`` (the expected metric was never measured —
    itself a failure: the extraction hook regressed).
    """

    metric: str
    band: Band
    measured: Optional[float]
    status: str

    @property
    def failed(self) -> bool:
        """True when this check should fail the regression gate."""
        return self.status in ("fail", "missing")

    def deviation_pct(self) -> Optional[float]:
        """Signed percent deviation of the measurement from the target."""
        if self.measured is None:
            return None
        return self.band.deviation_pct(self.measured)


def check_metric(metric: str, band: Band, measured: Optional[float]) -> MetricCheck:
    """Compare one measurement against its band and classify the result."""
    if measured is None:
        return MetricCheck(metric, band, None, "missing")
    measured = float(measured)
    if band.contains(measured):
        return MetricCheck(metric, band, measured,
                           "closed_gap" if band.known_gap else "pass")
    return MetricCheck(metric, band, measured, "gap" if band.known_gap else "fail")
