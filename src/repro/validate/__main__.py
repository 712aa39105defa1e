"""Paper-fidelity validation CLI.

Usage::

    python -m repro.validate run [--quick|--full] [--figure F ...]
                                 [-j N] [--no-cache] [--cache-dir DIR]
                                 [--docs PATH] [--out PATH]
    python -m repro.validate report [--quick|--full] [--verdict PATH]
    python -m repro.validate update-golden [--quick|--full] [--figure F ...]
    python -m repro.validate diff [--quick|--full] [--figure F ...]

``run`` executes the selected tier through the cached parallel runner,
compares every extracted metric against its band (the paper claims each
figure module declares in ``paper_bands`` and the golden pins in
``src/repro/validate/expected/``), writes the machine-readable verdict
(which ``python -m repro.obs report`` also summarizes), and exits
non-zero naming the offending figures when
anything lands outside its band.  It writes nothing inside the checkout
unless told to: the generated results document is rendered only with
``--docs PATH`` (``--docs docs/RESULTS.md`` refreshes the committed one).

``report`` re-renders the last verdict without re-running anything;
``diff`` shows every measured metric (banded or not) against its band;
``update-golden`` re-pins the repro-sourced targets after an
intentional behaviour change (see ``docs/VALIDATION.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..experiments import figures as registry
from ..runner.flags import add_runner_flags, runner_env, scoped_env
from .docgen import write_results_md
from .extract import derive
from .suite import SUITE, available_figures, run_suite
from .verdict import FigureVerdict, Verdict


def _tier(args) -> str:
    return "full" if args.full else "quick"


def _default_verdict_path(tier: str) -> Path:
    """``<cache>/validation/verdict-<tier>.json``; call it inside the
    command's :func:`scoped_env`, so ``--cache-dir`` places it."""
    from ..obs.rundir import VALIDATION_DIR
    from ..runner.cache import default_cache_dir

    return default_cache_dir() / VALIDATION_DIR / f"verdict-{tier}.json"


def _figure_line(fv: FigureVerdict) -> str:
    """One status line per figure for the live run output."""
    extra = ""
    for status, label in (("gap", "known gap"), ("closed_gap", "closed gap")):
        n = sum(1 for c in fv.checks if c.status == status)
        extra += f", {n} {label}{'s' if n != 1 else ''}" if n else ""
    if fv.error is not None:
        return f"{fv.figure:10s} FAIL   (check error: {fv.error})"
    return (
        f"{fv.figure:10s} {fv.status:5s}  "
        f"{len(fv.checks)} checks{extra}  [{fv.wall_time:.1f}s]"
    )


def _print_failures(verdict: Verdict) -> None:
    """Spell out every out-of-band metric with its band and deviation."""
    for fv in verdict.figures:
        if not fv.failed:
            continue
        print(f"\n{fv.figure} — {fv.title}: FAIL")
        if fv.error is not None:
            print(f"  check error: {fv.error}")
        for c in fv.checks:
            if not c.failed:
                continue
            dev = c.deviation_pct()
            devs = f" ({dev:+.2f}% off target)" if dev is not None else ""
            measured = "not measured" if c.measured is None else repr(c.measured)
            print(f"  {c.metric}: measured {measured}, "
                  f"band {c.band.describe()}{devs}")


def _summary(verdict: Verdict) -> str:
    counts = verdict.counts()
    return (
        f"overall: {verdict.status} ({counts['pass']} pass / "
        f"{counts['fail']} fail / {counts['gap']} gap / "
        f"{counts['closed_gap']} closed gap / "
        f"{counts['missing']} missing over {len(verdict.figures)} figures)"
    )


def _cmd_run(args) -> int:
    tier = _tier(args)
    with scoped_env(runner_env(args)):
        verdict = run_suite(
            tier, figures=args.figure or None,
            expected_dir=Path(args.expected) if args.expected else None,
            progress=lambda fv: print(_figure_line(fv)),
        )
        out_path = Path(args.out) if args.out else _default_verdict_path(tier)
    verdict.save(out_path)
    print(f"verdict: {out_path}")
    if args.docs:
        write_results_md(verdict, Path(args.docs))
        print(f"results doc regenerated: {args.docs}")
    print(_summary(verdict))
    if verdict.status == "fail":
        _print_failures(verdict)
        print(f"\nVALIDATION FAILED: {', '.join(verdict.failing_figures)}")
        return 1
    return 0


def _cmd_report(args) -> int:
    tier = _tier(args)
    path = Path(args.verdict) if args.verdict else _default_verdict_path(tier)
    if not path.exists():
        print(f"no verdict found at {path}")
        print(f"run `python -m repro.validate run --{tier}` first")
        return 2
    verdict = Verdict.load(path)
    print(f"== paper-fidelity verdict (tier: {verdict.tier}) ==")
    for fv in verdict.figures:
        print(_figure_line(fv))
    print(_summary(verdict))
    if verdict.status == "fail":
        _print_failures(verdict)
    return 0


def _cmd_update_golden(args) -> int:
    from .golden import update_golden

    tier = _tier(args)
    with scoped_env(runner_env(args)):
        changes = update_golden(
            tier, figures=args.figure or None,
            expected_dir=Path(args.expected) if args.expected else None,
        )
    total = 0
    for figure, changed in changes.items():
        print(f"{figure}: {len(changed)} band change"
              f"{'s' if len(changed) != 1 else ''}")
        for line in changed:
            print(f"  {line}")
        total += len(changed)
    print(f"update-golden ({tier}): {len(changes)} figures rewritten, "
          f"{total} targets changed")
    print("review the expected/*.json diff, then re-run "
          f"`python -m repro.validate run --{tier}`")
    return 0


def _cmd_diff(args) -> int:
    from .suite import figure_bands, measure_figure

    tier = _tier(args)
    with scoped_env(runner_env(args)):
        for figure in available_figures(tier, args.figure):
            bands = figure_bands(
                figure, tier, Path(args.expected) if args.expected else None
            )
            measured = measure_figure(figure, tier)
            print(f"\n== {figure} — {registry.figure(figure).TITLE} ({tier}) ==")
            for mid in sorted(set(bands) | set(measured)):
                band = bands.get(mid)
                value = derive(mid, measured)
                shown = "(not measured)" if value is None else f"{value!r}"
                if band is None:
                    print(f"  {mid}: {shown}  [no band]")
                    continue
                dev = band.deviation_pct(value) if value is not None else None
                devs = f"  {dev:+.3f}%" if dev is not None else ""
                ok = "ok" if value is not None and band.contains(value) else "OUT"
                print(f"  {mid}: {shown} vs {band.describe()}{devs}  [{ok}]")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Paper-fidelity regression gate for the PERT reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, runner_flags=True):
        tier = p.add_mutually_exclusive_group()
        tier.add_argument("--quick", action="store_true", default=True,
                          help="CI tier: scaled-down points vs pinned goldens "
                               "(default)")
        tier.add_argument("--full", action="store_true",
                          help="nightly tier: paper-scale points vs published "
                               "numbers")
        p.add_argument("--figure", action="append", metavar="ID",
                       choices=list(SUITE),
                       help="restrict to one figure (repeatable)")
        p.add_argument("--expected", default=None, metavar="DIR",
                       help="override the committed expected/ directory "
                            "of golden pins (tests use this)")
        if runner_flags:
            add_runner_flags(p)

    run_p = sub.add_parser(
        "run", help="run a tier and gate on the committed bands")
    common(run_p)
    run_p.add_argument("--out", default=None, metavar="PATH",
                       help="verdict JSON path (default: "
                            "<cache>/validation/verdict-<tier>.json, where "
                            "<cache> is --cache-dir, else $REPRO_CACHE_DIR, "
                            "else ~/.cache/repro)")
    run_p.add_argument("--docs", default=None, metavar="PATH",
                       help="also render the results doc to PATH "
                            "(the committed one is docs/RESULTS.md)")
    run_p.set_defaults(fn=_cmd_run)

    rep_p = sub.add_parser("report", help="re-render the last verdict")
    common(rep_p, runner_flags=False)
    rep_p.add_argument("--verdict", default=None, metavar="PATH",
                       help="verdict file to render (default: the tier's "
                            "last `run` output)")
    rep_p.set_defaults(fn=_cmd_report)

    gold_p = sub.add_parser(
        "update-golden",
        help="re-pin golden targets after an intentional change")
    common(gold_p)
    gold_p.set_defaults(fn=_cmd_update_golden)

    diff_p = sub.add_parser(
        "diff", help="show every measured metric against its band")
    common(diff_p)
    diff_p.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
