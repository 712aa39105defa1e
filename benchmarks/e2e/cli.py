"""Command line: the driver's contract mode and the developer subcommands.

Contract mode (what ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Developer subcommands (``PYTHONPATH=src python -m benchmarks.e2e ...``)::

    run     --workload W|all --seed N [--seconds S] [--runs K] [--smoke] [--out PATH]
    trace   --workload W --seed N [--seconds S] [--smoke] [--out PATH] [--spans-out PATH]
    compare A.json B.json
    repin

``run`` and ``trace`` print to stdout and write only where ``--out`` /
``--spans-out`` point; ``repin`` is the one command that writes inside
the repo (``expected.json``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import List, Optional

from . import bootstrap

SUBCOMMANDS = ("run", "trace", "compare", "repin")


def _common(ap: argparse.ArgumentParser, workload_required: bool = True) -> None:
    ap.add_argument("--workload", required=workload_required, default="all")
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload shrunk below a second, 2 repetitions")
    ap.add_argument("--out", default=None, help="also write the JSON report here")


def _emit(report, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)


def _contract(argv: List[str], developer: bool = False) -> int:
    """One run of one workload, untraced or traced.

    The driver's mode prints the result line last and exits 0 whatever the
    verdict (``correct`` carries it); the developer's ``trace`` subcommand
    is the same run without that line, exiting 1 on a failed repetition.
    """
    ap = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    _common(ap)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None,
                    help="write a sample of full span trees here (JSON lines)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    bootstrap()
    from . import harness

    if args.probe_setup:
        harness.probe_setup(args.workload, args.seed, args.smoke)
        return 0
    seconds = args.seconds if args.seconds is not None else harness.SPEC["run_seconds"]
    if args.trace:
        from .layers import trace_workload

        report = trace_workload(args.workload, args.seed, seconds, args.smoke,
                                args.spans_out)
        declared = harness.SPEC["per_layer"]
    else:
        report = harness.run_workload(args.workload, args.seed, seconds, args.smoke)
        declared = harness.SPEC["end_to_end"]
    _emit(report, args.out)
    print(harness.describe(report))
    if developer:
        return 1 if report["failed"] else 0
    print(harness.contract_line(report, declared))
    return 0


def _run(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.e2e run")
    _common(ap, workload_required=False)
    ap.add_argument("--runs", type=int, default=1, help="runs per workload")
    args = ap.parse_args(argv)
    bootstrap()
    from . import harness
    from .workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    with harness.scratch() as tmp:
        for _ in range(args.runs):
            for name in names:
                # one process per run, as the driver does: peak RSS is per process
                cmd = [sys.executable, str(harness.HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--out", str(tmp / "report.json")]
                if args.seconds is not None:
                    cmd += ["--seconds", str(args.seconds)]
                subprocess.run(cmd + (["--smoke"] if args.smoke else []), check=True)
                reports.append(json.loads((tmp / "report.json").read_text()))
    _emit({"header": reports[0]["header"], "runs": reports}, args.out)
    return 1 if any(r["failed"] for r in reports) else 0


def _compare(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    from .compare import compare_files

    text, code = compare_files(args.a, args.b)
    print(text)
    return code


def _repin(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.e2e repin")
    ap.add_argument("--seed", type=int, default=2)
    args = ap.parse_args(argv)
    bootstrap()
    from . import harness
    from .workloads import WORKLOADS, build

    pinned = {"seed": args.seed, "stamp": harness.header(args.seed, False)}
    for smoke in (True, False):
        digests = {}
        for name in sorted(WORKLOADS):
            with harness.scratch() as tmp:
                workload = build(name, args.seed, smoke, tmp)
                digests[name] = workload.check(workload.warm()).digest
            print(f"{'smoke' if smoke else 'full':5s} {name:22s} {digests[name]}",
                  flush=True)
        pinned["smoke" if smoke else "full"] = digests
    for key in ("seed", "smoke"):
        pinned["stamp"].pop(key)
    harness.EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.EXPECTED}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        if argv[0] == "trace":
            return _contract(["--trace", "1"] + argv[1:], developer=True)
        return {"run": _run, "compare": _compare, "repin": _repin}[argv[0]](argv[1:])
    return _contract(argv)
