"""The figure registry: every reproduced artefact, declared once.

:data:`FIGURES` is the only list of figures in the repository.  The
experiments CLI, the validation suite (:data:`repro.validate.suite.SUITE`)
and the tests all read it; a figure's id is also the stem of its
golden pins' ``validate/expected/<id>.json`` and its anchor in
``docs/RESULTS.md``.

**The module is the record.**  A figure is a module of this package
that states ``TITLE`` (the heading used wherever the figure is named),
``PAPER_EXPECTATION`` (one sentence: what the paper shows with it),
``QUICK`` (``run()`` kwargs of the CI-sized tier pinned by goldens;
``None`` = full tier only), optionally ``FULL`` (``run()`` kwargs of the
paper-shaped tier; absent = ``run()``'s defaults), and three functions:
``run(**kwargs)``, ``validation_metrics(output)`` flattening its output
to ``{metric_id: float}`` for :mod:`repro.validate`, and
``tables(output)`` returning ``[(title, columns, rows)]`` for
:func:`print_figure`; optionally a fourth, ``paper_bands(tier)``
returning ``{metric_id: Band}``, the paper's numbers and claims the
figure is judged by at *tier* (the only place they are stated; like
``validation_metrics`` it imports :mod:`repro.validate` inside the
function).

Modules are resolved by name on demand, and this module is not imported
by ``repro.experiments/__init__``: ``import repro.experiments.common``
— what every forked ``dumbbell`` job does — loads no figure module.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Dict, List, Optional

from .report import format_table

__all__ = ["FIGURES", "TIERS", "figure", "tier_kwargs", "tiers",
           "print_figure"]

#: figure id -> module name in this package, in docs/RESULTS.md order:
#: the paper's artefacts, then the checks that go beyond it
FIGURES: Dict[str, str] = {
    "fig2": "fig2_loss_correlation",
    "fig3": "fig3_predictors",
    "fig4": "fig4_false_positive_pdf",
    "fig5": "fig5_response_curve",
    "fig6": "fig6_bandwidth",
    "fig7": "fig7_rtt",
    "fig8": "fig8_nflows",
    "fig9": "fig9_web",
    "table1": "table1_rtts",
    "fig11": "fig11_multibottleneck",
    "fig12": "fig12_dynamics",
    "fig12b": "fig12b_cbr_dynamics",
    "fig13": "fig13_fluid",
    "fig14": "fig14_pert_pi",
    "ablations": "ablations",
    "robustness": "robustness",
}

#: the two operating-point sets a figure is run at, cheapest first
TIERS = ("quick", "full")


def figure(fid: str):
    """Import and return the module that is figure *fid*'s record."""
    try:
        name = FIGURES[fid]
    except KeyError:
        raise KeyError(
            f"unknown figure {fid!r}; valid: {list(FIGURES)}") from None
    return importlib.import_module(f"{__package__}.{name}")


def tier_kwargs(mod, tier: str) -> Optional[Dict[str, Any]]:
    """*mod*'s ``run()`` kwargs at *tier*, or ``None`` if it skips the tier."""
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; valid: {TIERS}")
    return mod.QUICK if tier == "quick" else getattr(mod, "FULL", {})


def tiers(fid: str) -> List[str]:
    """Tier names figure *fid* participates in, cheapest first."""
    mod = figure(fid)
    return [t for t in TIERS if tier_kwargs(mod, t) is not None]


def print_figure(mod=None) -> None:
    """Run a figure at its full tier and print it beside the paper's claim.

    *mod* defaults to the module being executed as a script, which is
    what keeps ``python -m repro.experiments.fig6_bandwidth`` working
    from a two-line ``__main__`` guard.
    """
    if mod is None:
        mod = sys.modules["__main__"]
    output = mod.run(**tier_kwargs(mod, "full"))
    for title, columns, rows in mod.tables(output):
        print(format_table(rows, list(columns), title=title))
        print()
    print(f"Paper expectation: {mod.PAPER_EXPECTATION}")
