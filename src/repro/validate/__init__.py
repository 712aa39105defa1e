"""Paper-fidelity regression gate (``python -m repro.validate``).

Runs every figure declared in :data:`repro.experiments.figures.FIGURES`
through the cached parallel runner, extracts its metrics via the figure
module's ``validation_metrics`` hook, and compares them against the
committed expectations in ``src/repro/validate/expected/*.json``:

* **quick** tier — CI-sized operating points checked against *golden*
  targets pinned from this reproduction (tight tolerances; catches any
  behavioural drift);
* **full** tier — paper-scale operating points checked against the
  *paper's* published numbers and claims (loose, documented tolerance
  bands; measures fidelity).

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
from .extract import fmt_num, metric_id, rows_to_metrics, subset
from .golden import update_golden
from .suite import (
    SUITE,
    TIERS,
    available_figures,
    check_figure,
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
    "subset",
    "VERDICT_SCHEMA",
    "ExpectedFigure",
    "FigureVerdict",
    "Verdict",
    "load_expected",
    "write_expected",
    "SUITE",
    "TIERS",
    "available_figures",
    "measure_figure",
    "check_figure",
    "run_suite",
    "update_golden",
    "render_results_md",
    "write_results_md",
]
