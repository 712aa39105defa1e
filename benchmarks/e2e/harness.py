"""The untraced run: set-up probes, warm-up, calibrated closed-loop repetitions.

One process generates the whole load: a repetition starts when the previous
one has ended and been checked.  Nothing is written inside the checkout
except a scratch directory (``.bench_tmp/``) that is removed before exit.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

import numpy

from . import ROOT
from .calib import (CALIB_DRIFT_WARN, LAUNCH_REF_S, bare_launch, kernel, normalise,
                    spread, summary)

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: full-size runs never stop before this many timed repetitions
MIN_REPS = 3
#: fresh-process launches behind one ``setup_s`` value
SETUP_PROBES = 5


@contextmanager
def scratch() -> Iterator[Path]:
    """A private directory inside the checkout, removed afterwards."""
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="e2e-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()  # only succeeds once the last concurrent run is gone
        except OSError:
            pass


def header(seed: int, smoke: bool) -> Dict[str, Any]:
    """What must match before two result sets may be compared."""
    from repro.compiled import active_tier
    from repro.sim.engine import get_engine_class

    from .workloads import W

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "W": W,
        "engine": get_engine_class().__name__,
        "tier": active_tier(),
        "seed": seed,
        "smoke": smoke,
        "git": sha,
    }


def expected_digest(name: str, seed: int, smoke: bool) -> Optional[str]:
    """The pinned digest, or ``None`` when this seed/size is not pinned."""
    if not EXPECTED.exists():
        return None
    pinned = json.loads(EXPECTED.read_text())
    if seed != pinned["seed"]:
        return None
    return pinned["smoke" if smoke else "full"].get(name)


def _pinned_under() -> str:
    """The environment ``expected.json`` was written in, for mismatch reports."""
    stamp = json.loads(EXPECTED.read_text())["stamp"]
    return f"python {stamp['python']}, numpy {stamp['numpy']}, git {stamp['git']}"


def probe_setup(name: str, seed: int, smoke: bool) -> None:
    """What one ``setup_s`` launch does after the interpreter starts."""
    from repro.sim.engine import get_engine_class

    from .workloads import build

    get_engine_class()
    with scratch() as tmp:
        build(name, seed, smoke, tmp)


def measure_setup(name: str, seed: int, smoke: bool, launches: int) -> List[float]:
    """Calibrated seconds of *launches* fresh processes doing :func:`probe_setup`.

    Each launch is bracketed by a bare interpreter launch and normalised by
    it, as a repetition is by the kernel (see :func:`.calib.bare_launch`).
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    out = []
    calib = bare_launch()
    for _ in range(launches):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        wall = perf_counter() - t0
        before, calib = calib, bare_launch()
        out.append(normalise(wall, before, calib, LAUNCH_REF_S))
    return out


def peak_rss_mb(children: bool) -> float:
    """``ru_maxrss`` (KiB on Linux) of this process, or the max with children."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


def timed_rep(workload, work=None) -> Dict[str, Any]:
    """One calibrated, checked repetition; failures are recorded, not raised.

    The kernel runs before the first part, between parts and after the last
    one, and each part is normalised by the two calibrations around it.
    *work*, when given, replaces the parts with one callable returning all
    their outputs (the traced passes wrap the whole repetition).
    """
    parts = [work] if work else workload.parts()
    gc.collect()
    calibs = [kernel()]
    walls, outs, error = [], [], None
    for part in parts:
        t0 = perf_counter()
        try:
            outs.append(part())
        except Exception as exc:  # noqa: BLE001 - a raising repetition is a failed one
            error = f"raised {type(exc).__name__}: {exc}"
        walls.append(perf_counter() - t0)
        calibs.append(kernel())
        if error:
            break
    rec: Dict[str, Any] = {
        "wall_s": sum(walls), "calibs": calibs,
        "norm_s": sum(normalise(w, calibs[i], calibs[i + 1]) for i, w in enumerate(walls)),
        "flagged": any(abs(a - b) > CALIB_DRIFT_WARN * min(a, b)
                       for a, b in zip(calibs, calibs[1:])),
    }
    if error is None:
        rep = workload.check(outs[0] if work else outs)
        rec.update(units=rep.units, digest=rep.digest, problems=rep.problems,
                   jobs=rep.jobs, jobs_failed=rep.jobs_failed, stats=rep.stats)
    else:
        rec.update(units=0, digest=None, problems=[error], jobs=0, jobs_failed=0,
                   stats=None)
    return rec


def judge(reps: List[Dict[str, Any]], pinned: Optional[str]) -> Dict[str, Any]:
    """Apply the failure rule to a run's repetitions; returns the tallies."""
    reference = next((r["digest"] for r in reps if r["digest"]), None)
    for r in reps:
        if r["digest"] and r["digest"] != reference:
            r["problems"].append("digest differs from another repetition's")
        if r["digest"] and pinned and r["digest"] != pinned:
            r["problems"].append(
                f"digest differs from expected.json (pinned under {_pinned_under()})")
    attempted = len(reps) + sum(r["jobs"] for r in reps)
    failed = sum(bool(r["problems"]) for r in reps) + sum(r["jobs_failed"] for r in reps)
    return {"attempted": attempted, "failed": failed, "digest": reference,
            "failed_share": failed / attempted}


def calib_report(reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The calibration kernel's self-report for one run."""
    calibs = [c for r in reps for c in r["calibs"]]
    warnings = [
        f"rep {i}: calibrations {' -> '.join(f'{c:.4f}' for c in r['calibs'])} s "
        f"moved more than {CALIB_DRIFT_WARN:.0%}; kept but flagged"
        for i, r in enumerate(reps) if r["flagged"]
    ]
    return {"host.calib_s": summary(calibs, "s"),
            "host.calib_spread": {"value": spread(calibs), "unit": "ratio"},
            "warnings": warnings}


def run_workload(name: str, seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    """The untraced run of one workload; returns its full report."""
    from .workloads import build

    setup = measure_setup(name, seed, smoke, 2 if smoke else SETUP_PROBES)
    with scratch() as tmp:
        workload = build(name, seed, smoke, tmp)
        workload.check(workload.warm())
        reps: List[Dict[str, Any]] = []
        start = perf_counter()
        while True:
            reps.append(timed_rep(workload))
            if smoke:
                if len(reps) == 2:
                    break
            elif len(reps) >= MIN_REPS and perf_counter() - start >= seconds:
                break
    tally = judge(reps, expected_digest(name, seed, smoke))
    rates = [r["units"] / r["norm_s"] for r in reps]
    report = {
        "workload": name,
        "header": header(seed, smoke),
        "work_unit": workload.unit,
        "metrics": {
            "work_per_s": summary(rates, "1/s"),
            "setup_s": summary(setup, "s"),
            "peak_rss_mb": {"value": peak_rss_mb(name.startswith("sweep.")),
                            "unit": "MB"},
        },
        "wall_s": summary([r["wall_s"] for r in reps], "s"),
        "problems": sorted({p for r in reps for p in r["problems"]}),
        "reps": [{k: v for k, v in r.items() if k != "stats"} for r in reps],
    }
    report.update(tally)
    report.update(calib_report(reps))
    return report


def contract_line(report: Dict[str, Any], declared: List[Dict[str, Any]]) -> str:
    """The last stdout line the driver reads: every declared metric, by name.

    A per-layer metric whose layer does no work on this workload is
    reported as 0 (the driver wants every name on every workload).
    """
    metrics = {}
    for decl in declared:
        got = report["metrics"].get(decl["name"])
        metrics[decl["name"]] = {"value": got["value"] if got else 0.0,
                                 "unit": decl["unit"]}
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def describe(report: Dict[str, Any]) -> str:
    """Human-readable summary printed above the contract line."""
    h = report["header"]
    lines = [
        f"# {report['workload']} seed={h['seed']} smoke={h['smoke']} "
        f"python={h['python']} numpy={h['numpy']} nproc={h['nproc']} W={h['W']} "
        f"engine={h['engine']} tier={h['tier']} git={h['git']}",
    ]
    for name, m in sorted(report["metrics"].items()):
        extra = (f"  p25={m['p25']:.6g} p75={m['p75']:.6g} n={m['n']}"
                 if "n" in m else "")
        lines.append(f"{name:40s} {m['value']:.6g} {m['unit']}{extra}")
    for key in ("wall_s", "host.calib_s"):
        if key in report:
            p25, med, p75 = report[key]["p25"], report[key]["value"], report[key]["p75"]
            lines.append(f"{key:40s} {med:.6g} s  p25={p25:.6g} p75={p75:.6g} (raw)")
    if "host.calib_spread" in report:
        lines.append(f"{'host.calib_spread':40s} {report['host.calib_spread']['value']:.4f}")
    lines.append(f"digest {report.get('digest')}  attempted={report['attempted']} "
                 f"failed={report['failed']} failed_share={report['failed_share']:.4f}")
    lines += [f"WARNING {w}" for w in report.get("warnings", [])]
    lines += [f"PROBLEM {p}" for p in report.get("problems", [])]
    return "\n".join(lines)
