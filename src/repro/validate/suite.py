"""The validation suite: run every declared figure and judge it.

What a figure *is* — its title, its quick- and full-tier operating
points, how it runs, which metrics it yields and which of the paper's
claims they must meet — is declared once, in its module under
:mod:`repro.experiments` and listed in
:data:`repro.experiments.figures.FIGURES`.  This module owns the other
half: execute a figure at a tier (through the cached parallel runner
wherever the figure is grid-shaped), compare the measurements against
:func:`figure_bands` — the module's paper claims plus the golden pins
of ``expected/<figure>.json`` — and roll the outcome up into a
:class:`~repro.validate.verdict.Verdict`.

Tiers:

* ``quick`` — minutes, CI-sized operating points; targets are mostly
  goldens pinned from this reproduction (regression detection);
* ``full`` — the figures' default (paper-scaled) operating points;
  targets are mostly the paper's published numbers and claims
  (fidelity), so this is the nightly tier.

Figure modules are imported on demand, so importing
:mod:`repro.validate` stays cheap and cycle-free.

Because every grid-shaped figure executes through
:func:`repro.runner.run_jobs`, validation runs share the on-disk result
cache with ordinary experiment runs — a re-validation after an unrelated
edit simulates nothing, and each fresh job's cache entry is its record
for ``python -m repro.obs report``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..experiments import figures as registry
from .bands import Band, check_metric
from .extract import derive
from .verdict import ExpectedFigure, FigureVerdict, Verdict, load_expected

__all__ = [
    "EXPECTED_DIR",
    "SUITE",
    "TIERS",
    "available_figures",
    "expected_path",
    "load_suite_expected",
    "paper_bands",
    "figure_bands",
    "measure_figure",
    "check_figure",
    "run_suite",
]

#: committed per-figure band files live next to this module
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: the suite is the figure registry: every declared figure is validated,
#: at the tiers its module declares
SUITE = registry.FIGURES
TIERS = registry.TIERS


def available_figures(tier: str,
                      figures: Optional[Sequence[str]] = None) -> List[str]:
    """Figure ids participating in *tier*, in suite order.

    *figures* restricts the answer to a selection (unknown ids raise);
    a selected figure that skips *tier* is silently left out.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; valid: {TIERS}")
    unknown = [f for f in figures or () if f not in SUITE]
    if unknown:
        raise KeyError(f"unknown figures {unknown}; valid: {list(SUITE)}")
    return [f for f in figures or SUITE if tier in registry.tiers(f)]


def expected_path(figure: str, expected_dir: Optional[Path] = None) -> Path:
    """Path of *figure*'s committed expected file."""
    root = Path(expected_dir) if expected_dir is not None else EXPECTED_DIR
    return root / f"{figure}.json"


def load_suite_expected(
    figure: str, expected_dir: Optional[Path] = None
) -> ExpectedFigure:
    """*figure*'s golden pins; none when its expected file is absent."""
    path = expected_path(figure, expected_dir)
    if not path.exists():
        return ExpectedFigure(figure=figure, tiers={}, path=path)
    return load_expected(path)


def paper_bands(figure: str, tier: str) -> Dict[str, Band]:
    """The paper claims *figure*'s module declares at *tier*."""
    declare = getattr(registry.figure(figure), "paper_bands", None)
    return declare(tier) if declare is not None else {}


def figure_bands(
    figure: str, tier: str, expected_dir: Optional[Path] = None
) -> Dict[str, Band]:
    """Every band *figure* is judged by at *tier*: the golden pins of its
    expected file and the paper claims of its module.

    ``update-golden`` never pins an id the module claims, so an id in
    both is an error.
    """
    expected = load_suite_expected(figure, expected_dir)
    golden = expected.bands(tier)
    paper = paper_bands(figure, tier)
    both = sorted(set(golden) & set(paper))
    if both:
        raise ValueError(
            f"{expected.path}: {tier} ids {both} are golden pins and paper "
            f"claims of {figure}'s paper_bands at once")
    return {**golden, **paper}


def measure_figure(figure: str, tier: str) -> Dict[str, float]:
    """Run *figure* at *tier* and flatten its output to ``{metric_id: value}``."""
    mod = registry.figure(figure)
    kwargs = registry.tier_kwargs(mod, tier)
    if kwargs is None:
        raise KeyError(f"{figure} has no {tier!r} tier "
                       f"(tiers: {registry.tiers(figure)})")
    return mod.validation_metrics(mod.run(**kwargs))


def check_figure(
    figure: str,
    tier: str,
    expected_dir: Optional[Path] = None,
    measurements: Optional[Dict[str, float]] = None,
) -> FigureVerdict:
    """Measure one figure and compare it against :func:`figure_bands`.

    A measurement-runner exception does not propagate: it lands in
    ``FigureVerdict.error`` and fails the figure, so one broken
    experiment cannot mask the verdicts of the rest.
    """
    fv = FigureVerdict(figure=figure, title=registry.figure(figure).TITLE)
    bands = figure_bands(figure, tier, expected_dir)
    if not bands:
        fv.error = (
            f"no {tier} band for {figure}: no paper claim in its module and "
            f"no golden pin in {expected_path(figure, expected_dir)} (run "
            f"`python -m repro.validate update-golden --{tier} "
            f"--figure {figure}`)"
        )
        return fv
    t0 = time.monotonic()
    if measurements is None:
        try:
            measurements = measure_figure(figure, tier)
        except Exception as exc:  # noqa: BLE001 - isolate per-figure crashes
            fv.error = f"{type(exc).__name__}: {exc}"
            fv.wall_time = time.monotonic() - t0
            return fv
    fv.wall_time = time.monotonic() - t0
    for mid in sorted(bands):
        fv.checks.append(check_metric(mid, bands[mid], derive(mid, measurements)))
    fv.unchecked = len([m for m in measurements if m not in bands])
    return fv


def run_suite(
    tier: str,
    figures: Optional[Sequence[str]] = None,
    expected_dir: Optional[Path] = None,
    progress: Optional[Callable[[FigureVerdict], None]] = None,
) -> Verdict:
    """Run every selected figure at *tier* and roll up the verdict."""
    verdict = Verdict(tier=tier)
    for figure in available_figures(tier, figures):
        fv = check_figure(figure, tier, expected_dir)
        verdict.figures.append(fv)
        if progress is not None:
            progress(fv)
    return verdict
