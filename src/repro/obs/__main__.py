"""Observability CLI.

Usage::

    python -m repro.obs report <run-dir> [--top N] [--no-trace]
    python -m repro.obs diff <runA> <runB> [--threshold PCT] [--strict]
    python -m repro.obs profile [--scheme pert] [--bandwidth BPS]
                                [--duration S] [--seed N] [--period K]

``report`` post-processes the cache entries and traces a runner
execution left behind (point it at the ``--cache-dir`` of a
``python -m repro.experiments ... --obs --trace`` run).  ``diff`` compares
two run directories scheme by scheme with signed percent deltas and a
configurable flag threshold (``--strict`` exits 1 when any delta
exceeds it).  ``profile`` runs one dumbbell simulation under the
sampling profiler and prints the hottest event callbacks — the quickest
way to see where simulation wall time goes before optimising.
"""

from __future__ import annotations

import argparse
import os
import sys

from .report import format_table, generate_report


def _cmd_report(args) -> int:
    print(generate_report(args.run_dir, top=args.top,
                          include_trace=not args.no_trace))
    return 0


def _cmd_diff(args) -> int:
    from .diff import diff_runs, flagged_deltas, format_diff

    diff = diff_runs(args.run_a, args.run_b)
    print(format_diff(diff, threshold_pct=args.threshold))
    if args.strict and flagged_deltas(diff, args.threshold):
        return 1
    return 0


def _cmd_profile(args) -> int:
    from ..experiments.common import run_dumbbell
    from .runtime import ObsFlags, observe_job

    flags = ObsFlags(profile=True, profile_period=args.period)
    with observe_job(flags) as obs:
        result = run_dumbbell(
            scheme=args.scheme,
            bandwidth=args.bandwidth,
            n_fwd=args.flows,
            duration=args.duration,
            warmup=min(args.duration / 3.0, 20.0),
            seed=args.seed,
        )
    meta = obs.finish()
    prof = meta.get("profile") or {}
    wall = meta["wall_time"]
    print(
        f"{args.scheme} @ {args.bandwidth/1e6:.1f}Mbps, {args.duration:.0f}s sim: "
        f"{result.events_processed:,} events in {wall:.3f}s wall "
        f"({result.events_processed / wall:,.0f} events/s, "
        f"sampling 1/{prof.get('period', '?')})"
    )
    rows = [
        [r["callback"], str(r["samples"]), f"{r['est_time']:.3f}s"]
        for r in prof.get("top", [])[:args.top]
    ]
    print(format_table(["callback", "samples", "est_time"], rows))
    if meta.get("phases"):
        phases = ", ".join(
            f"{k}={v:.3f}s" for k, v in sorted(meta["phases"].items())
        )
        print(f"phases: {phases}")
    return 0


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
                     help="rows in the slowest-jobs/hot-callbacks tables")
    rep.add_argument("--no-trace", action="store_true",
                     help="skip reading sibling *.trace.jsonl files")
    rep.set_defaults(fn=_cmd_report)

    dif = sub.add_parser("diff", help="compare two run directories")
    dif.add_argument("run_a", help="baseline run directory (A)")
    dif.add_argument("run_b", help="candidate run directory (B)")
    dif.add_argument("--threshold", type=float, default=10.0, metavar="PCT",
                     help="flag |delta| over this percent (default 10)")
    dif.add_argument("--strict", action="store_true",
                     help="exit 1 when any delta exceeds the threshold")
    dif.set_defaults(fn=_cmd_diff)

    prof = sub.add_parser("profile", help="profile one dumbbell run")
    prof.add_argument("--scheme", default="pert")
    prof.add_argument("--bandwidth", type=float, default=10e6, metavar="BPS")
    prof.add_argument("--duration", type=float, default=15.0, metavar="S")
    prof.add_argument("--flows", type=int, default=10, metavar="N")
    prof.add_argument("--seed", type=int, default=1)
    prof.add_argument("--period", type=int, default=16, metavar="K",
                      help="time every K-th event (default 16)")
    prof.add_argument("--top", type=int, default=10, metavar="N")
    prof.set_defaults(fn=_cmd_profile)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly instead of
        # tracebacking (redirect so the interpreter's exit flush is safe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
