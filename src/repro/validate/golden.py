"""The ``update-golden`` workflow: re-pin repro-sourced targets.

Golden bands (``source: "golden"``) pin this reproduction's own
deterministic output; after an *intentional* behaviour change (new RNG
stream, different default parameter, engine rework) they are re-measured
and rewritten here.  They are all an expected file holds, so this
module owns those files outright.  Paper bands (``source: "paper"``)
encode published numbers and claims; each figure module declares its
own in ``paper_bands(tier)``, and changing one is an editorial act done
in that module with a rationale in ``docs/VALIDATION.md``.

Reconciliation rules, per figure and tier:

* an id the module declares a paper claim → never pinned (an old pin
  of it is dropped);
* measured id with an existing golden band  → target := measured value
  (tolerances, notes, bounds are preserved);
* measured id with no band                  → new golden band with the
  default tolerances (:data:`~repro.validate.bands.GOLDEN_REL_TOL` /
  :data:`~repro.validate.bands.GOLDEN_ABS_TOL`);
* unmeasured golden band                    → dropped (the metric no
  longer exists).

A figure left with no golden pin at any tier has no expected file.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .bands import Band, GOLDEN_ABS_TOL, GOLDEN_REL_TOL
from .suite import (
    available_figures,
    expected_path,
    load_suite_expected,
    measure_figure,
    paper_bands,
)
from .verdict import write_expected

__all__ = ["update_golden"]


def _reconcile(
    old: Dict[str, Band], measured: Dict[str, float]
) -> Tuple[Dict[str, Band], List[str]]:
    """Merge measured values into a golden band map per the module's rules."""
    new: Dict[str, Band] = {}
    changed: List[str] = []
    for mid, value in measured.items():
        band = old.get(mid)
        if band is None:
            new[mid] = Band(target=value, abs_tol=GOLDEN_ABS_TOL,
                            rel_tol=GOLDEN_REL_TOL, source="golden")
            changed.append(f"+ {mid}")
            continue
        if band.target != value:
            changed.append(f"~ {mid}: {band.target!r} -> {value!r}")
        new[mid] = dataclasses.replace(band, target=value)
    changed.extend(f"- {mid}" for mid in old if mid not in new)
    return new, changed


def update_golden(
    tier: str,
    figures: Optional[Sequence[str]] = None,
    expected_dir: Optional[Path] = None,
) -> Dict[str, List[str]]:
    """Re-measure *figures* at *tier* and rewrite their golden targets.

    Returns ``{figure: [change descriptions]}`` (empty list = file
    rewritten with no band changes).  A figure's expected file is
    created when it gains its first pin and removed when it loses its
    last.
    """
    changes: Dict[str, List[str]] = {}
    for figure in available_figures(tier, figures):
        claimed = paper_bands(figure, tier)
        measured = {mid: value
                    for mid, value in measure_figure(figure, tier).items()
                    if mid not in claimed}
        existing = load_suite_expected(figure, expected_dir)
        existing.tiers[tier], changed = _reconcile(existing.bands(tier), measured)
        path = expected_path(figure, expected_dir)
        if any(existing.tiers.values()):
            write_expected(existing, path)
        elif path.exists():
            path.unlink()
        changes[figure] = changed
    return changes
