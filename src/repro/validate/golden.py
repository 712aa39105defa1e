"""The ``update-golden`` workflow: re-pin repro-sourced targets.

Golden bands (``source: "golden"``) pin this reproduction's own
deterministic output; after an *intentional* behaviour change (new RNG
stream, different default parameter, engine rework) they are re-measured
and rewritten here.  Paper bands (``source: "paper"``) encode published
numbers and claims — they are never touched by automation; changing one
is an editorial act done by hand with a rationale in
``docs/VALIDATION.md``.

Reconciliation rules, per figure and tier:

* measured id with an existing golden band  → target := measured value
  (tolerances, notes, bounds are preserved);
* measured id with an existing paper band   → band kept verbatim;
* measured id with no band                  → new golden band with the
  default tolerances (:data:`~repro.validate.bands.GOLDEN_REL_TOL` /
  :data:`~repro.validate.bands.GOLDEN_ABS_TOL`);
* unmeasured golden band                    → dropped (the metric no
  longer exists);
* unmeasured paper band                     → kept, so the next ``run``
  reports it ``missing`` — a silent disappearance of a paper-tracked
  metric must fail loudly, not be garbage-collected.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .bands import Band, GOLDEN_ABS_TOL, GOLDEN_REL_TOL
from .suite import (
    available_figures,
    editable_expected,
    expected_path,
    measure_figure,
)
from .verdict import write_expected

__all__ = ["update_golden"]


def _reconcile(
    old: Dict[str, Band], measured: Dict[str, float]
) -> Tuple[Dict[str, Band], List[str]]:
    """Merge measured values into a band map per the module's rules."""
    new: Dict[str, Band] = {}
    changed: List[str] = []
    for mid, value in measured.items():
        band = old.get(mid)
        if band is None:
            new[mid] = Band(target=value, abs_tol=GOLDEN_ABS_TOL,
                            rel_tol=GOLDEN_REL_TOL, source="golden")
            changed.append(f"+ {mid}")
        elif band.source == "golden":
            if band.target != value:
                changed.append(f"~ {mid}: {band.target!r} -> {value!r}")
            new[mid] = dataclasses.replace(band, target=value)
        else:
            new[mid] = band
    for mid, band in old.items():
        if mid in new:
            continue
        if band.source == "paper":
            new[mid] = band
        else:
            changed.append(f"- {mid}")
    return new, changed


def update_golden(
    tier: str,
    figures: Optional[Sequence[str]] = None,
    expected_dir: Optional[Path] = None,
) -> Dict[str, List[str]]:
    """Re-measure *figures* at *tier* and rewrite their golden targets.

    Returns ``{figure: [change descriptions]}`` (empty list = file
    rewritten with no band changes).  Figures without an expected file
    get one created, all-golden.
    """
    changes: Dict[str, List[str]] = {}
    for figure in available_figures(tier, figures):
        measured = measure_figure(figure, tier)
        existing = editable_expected(figure, expected_dir)
        existing.tiers[tier], changed = _reconcile(existing.bands(tier), measured)
        write_expected(existing, expected_path(figure, expected_dir))
        changes[figure] = changed
    return changes
