"""Paper-fidelity regression gate (``python -m repro.validate``).

Runs every figure declared in :data:`repro.experiments.figures.FIGURES`
through the cached parallel runner, extracts its metrics via the figure
module's ``validation_metrics`` hook, and compares them against two
homes of bands (:func:`figure_bands` reads both):

* the *paper's* published numbers and claims, which each figure module
  declares in ``paper_bands(tier)`` (loose, documented tolerance bands;
  they measure fidelity and make up the **full** tier);
* *golden* targets pinned from this reproduction in
  ``src/repro/validate/expected/*.json`` by ``update-golden`` (tight
  tolerances; they catch any behavioural drift and make up most of the
  CI-sized **quick** tier).

The verdict is machine-readable JSON; ``docs/RESULTS.md`` is regenerated
from it by ``run --docs docs/RESULTS.md``.  See ``docs/VALIDATION.md`` for
the tolerance methodology and the ``update-golden`` workflow.
"""

from .bands import (
    GOLDEN_ABS_TOL,
    GOLDEN_REL_TOL,
    Band,
    MetricCheck,
    check_metric,
)
from .docgen import render_results_md, write_results_md
from .extract import fmt_num, metric_id, rows_to_metrics
from .golden import update_golden
from .suite import (
    SUITE,
    TIERS,
    available_figures,
    check_figure,
    figure_bands,
    measure_figure,
    run_suite,
)
from .verdict import (
    VERDICT_SCHEMA,
    ExpectedFigure,
    FigureVerdict,
    Verdict,
    load_expected,
    write_expected,
)

__all__ = [
    "Band",
    "MetricCheck",
    "check_metric",
    "GOLDEN_ABS_TOL",
    "GOLDEN_REL_TOL",
    "metric_id",
    "fmt_num",
    "rows_to_metrics",
    "VERDICT_SCHEMA",
    "ExpectedFigure",
    "FigureVerdict",
    "Verdict",
    "load_expected",
    "write_expected",
    "SUITE",
    "TIERS",
    "available_figures",
    "figure_bands",
    "measure_figure",
    "check_figure",
    "run_suite",
    "update_golden",
    "render_results_md",
    "write_results_md",
]
