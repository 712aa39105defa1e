"""Experiment harness: one module per paper table/figure.

``common.run_dumbbell`` is the workhorse; ``scenarios.SCHEMES`` holds the
protocol/queue pairings; ``figures.FIGURES`` is the registry of figure
modules, each of which is its figure's whole record — ``TITLE``,
``PAPER_EXPECTATION``, the ``QUICK``/``FULL`` operating points,
``run()``, ``validation_metrics()`` and ``tables()`` (see
:mod:`repro.experiments.figures`).  The registry and the figure modules
are imported on demand, never from here: a forked ``dumbbell`` job pays
for the harness only.
"""

from .common import DumbbellResult, bdp_packets, run_dumbbell
from .report import format_table
from .scenarios import SCHEMES, Scheme, get_scheme
from .section2 import TrafficCase, collect_case_trace, default_cases
from .sweep import SECTION4_SCHEMES, sweep_dumbbell

__all__ = [
    "run_dumbbell",
    "DumbbellResult",
    "bdp_packets",
    "SCHEMES",
    "Scheme",
    "get_scheme",
    "format_table",
    "sweep_dumbbell",
    "SECTION4_SCHEMES",
    "TrafficCase",
    "default_cases",
    "collect_case_trace",
]
