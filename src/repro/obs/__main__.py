"""Observability CLI.

Usage::

    python -m repro.obs report <run-dir> [--top N] [--no-trace]

``report`` post-processes the cache entries and traces a runner
execution left behind (point it at the ``--cache-dir`` of a
``python -m repro.experiments ... --obs --trace`` run).  Whether a
change moved the results is ``python -m repro.validate diff``'s
question, and where a packet's host time goes is ``benchmarks/e2e``'s
(``run.py --trace 1``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .report import generate_report


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect observability output of repro runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="summarize a run directory")
    rep.add_argument("run_dir", help="the runner's cache dir (or a fleet "
                                     "dir)")
    rep.add_argument("--top", type=int, default=10, metavar="N",
                     help="rows in the slowest-jobs table")
    rep.add_argument("--no-trace", action="store_true",
                     help="skip reading sibling *.trace.jsonl files")

    args = parser.parse_args(argv)
    report = generate_report(args.run_dir, top=args.top,
                             include_trace=not args.no_trace)
    try:
        print(report)
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly instead of
        # tracebacking (redirect so the interpreter's exit flush is safe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
