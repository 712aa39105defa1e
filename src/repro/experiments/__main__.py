"""Command-line runner for the paper-reproduction experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig6 [--workers N] [--no-cache]
    python -m repro.experiments all -j 8 --progress
    python -m repro.experiments report      # paper-fidelity verdict

Each figure of :data:`repro.experiments.figures.FIGURES` runs at its
full tier and prints the reproduced tables next to the paper's
expectation.  Grid-shaped experiments execute through
:mod:`repro.runner`: ``--workers`` fans simulation jobs out over worker
processes (default: one per CPU) and results are cached on disk
(``~/.cache/repro`` or ``$REPRO_CACHE_DIR``) so a re-run only simulates
changed points.  ``--workers 0`` forces the serial in-process path for
debugging.  The figure modules' ``run()`` functions accept full-scale
parameters programmatically.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict

from ..runner.flags import add_runner_flags, runner_env, scoped_env
from .figures import FIGURES, figure, print_figure, tiers


def _runner_env(args) -> Dict[str, str]:
    """Translate CLI flags into the runner's environment knobs."""
    env = runner_env(args)
    if args.workers is None and "REPRO_WORKERS" not in os.environ:
        env["REPRO_WORKERS"] = str(os.cpu_count() or 1)
    if args.obs:
        env["REPRO_OBS"] = "1"
    if args.trace:
        env["REPRO_TRACE"] = "1"
    if args.profile:
        env["REPRO_PROFILE"] = "1"
    if args.fleet:
        env["REPRO_FLEET"] = args.fleet
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce a table/figure from the PERT paper.",
    )
    parser.add_argument(
        "experiment",
        choices=list(FIGURES) + ["list", "all", "report"],
        help="figure id (e.g. fig6, table1), 'list', 'all', or "
             "'report' (paper-fidelity verdict via repro.validate)",
    )
    add_runner_flags(parser, "$REPRO_WORKERS or one per CPU")
    parser.add_argument(
        "--obs", action="store_true",
        help="collect in-sim metrics into each fresh job's cache entry "
             "(read by 'python -m repro.obs report')",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="also write a schema-versioned JSONL event trace per fresh job "
             "(implies --obs)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="sample event-callback timings in each job (adds a 'profile' "
             "section to its cache entry; slows the run)",
    )
    parser.add_argument(
        "--fleet", default=None, metavar="DIR",
        help="run grid experiments through a crash-safe fleet directory "
             "(python -m repro.fleet): sweeps are journaled, killed runs "
             "resume with zero recomputation (also via $REPRO_FLEET)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for fid in FIGURES:
            mod = figure(fid)
            print(f"{fid:10s} {'+'.join(tiers(fid)):10s} "
                  f"{mod.__name__:42s} {mod.TITLE}")
        print("\n(id, validation tiers, module — each also runs standalone "
              "with `python -m <module>` — and title)")
        print("how close is each figure to the paper?  "
              "`python -m repro.experiments report` (or "
              "`python -m repro.validate run --quick`)")
        return 0

    if args.experiment == "report":
        # Measured-vs-paper comparison lives in the validation subsystem.
        from ..validate.__main__ import main as validate_main

        return validate_main(["report"])

    names = list(FIGURES) if args.experiment == "all" else [args.experiment]
    with scoped_env(_runner_env(args)):
        for name in names:
            print(f"=== {name} " + "=" * max(0, 60 - len(name)))
            print_figure(figure(name))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
