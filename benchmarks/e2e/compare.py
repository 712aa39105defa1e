"""``compare A.json B.json``: is set B a regression against set A?

A *set* is what ``run --out`` writes (a header plus one report per run);
a single report is accepted too.  For every (end-to-end metric,
workload) pair the medians over the set's runs are compared under the
bound ``BENCHMARK.json`` fixes for the metric:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  the run-to-run spread of either side is wider than the
                bound and the two sides' runs overlap, so the pair cannot
                be called either way.

Exact quantities are compared exactly: a differing digest or a failed
repetition on either side is reported and fails the comparison.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .calib import quartiles, spread

#: header fields that must agree before two sets are comparable
MUST_MATCH = ("engine", "tier", "W", "smoke")


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "runs" not in data:  # a single report
        data = {"header": data["header"], "runs": [data]}
    return data


def _side(reports: List[Dict[str, Any]], metric: str) -> Tuple[float, float, float, float]:
    """Median, spread, low and high of *metric* over one side's runs."""
    cells = [r["metrics"][metric] for r in reports]
    values = [c["value"] for c in cells]
    if len(values) > 1:
        return quartiles(values)[1], spread(values), min(values), max(values)
    cell = cells[0]  # one run: fall back on its repetitions' quartiles
    low, high = cell.get("p25", cell["value"]), cell.get("p75", cell["value"])
    return cell["value"], (high - low) / cell["value"], low, high


def compare_sets(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> Tuple[str, int]:
    mismatch = [k for k in MUST_MATCH if a["header"].get(k) != b["header"].get(k)]
    if mismatch:
        detail = ", ".join(f"{k}: {a['header'].get(k)!r} vs {b['header'].get(k)!r}"
                           for k in mismatch)
        return f"refusing to compare: headers differ ({detail})", 2

    def by_workload(data):
        out: Dict[str, List[Dict[str, Any]]] = {}
        for report in data["runs"]:
            out.setdefault(report["workload"], []).append(report)
        return out

    runs_a, runs_b = by_workload(a), by_workload(b)
    lines = [f"{'workload':21s} {'metric':12s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
             f"{'spreadA':>8s} {'spreadB':>8s} {'bound':>6s}  verdict"]
    code = 0
    for name in sorted(set(runs_a) & set(runs_b)):
        for decl in spec["end_to_end"]:
            metric, bound = decl["name"], decl["bound"]
            med_a, sp_a, lo_a, hi_a = _side(runs_a[name], metric)
            med_b, sp_b, lo_b, hi_b = _side(runs_b[name], metric)
            worse = (med_a - med_b) / med_a if decl["better"] == "higher" \
                else (med_b - med_a) / med_a
            overlap = lo_a <= hi_b and lo_b <= hi_a
            if max(sp_a, sp_b) > bound and overlap:
                verdict = "unresolved"
            elif worse > bound:
                verdict, code = "regressed", 1
            else:
                verdict = "ok"
            lines.append(
                f"{name:21s} {metric:12s} {med_a:12.6g} {med_b:12.6g} "
                f"{med_b / med_a:7.3f} {sp_a:8.1%} {sp_b:8.1%} {bound:6.0%}  {verdict}"
                f"  (ratio base: A, {decl['unit']})")
        digests = {r.get("digest") for r in runs_a[name] + runs_b[name]}
        failed = sum(r["failed"] for r in runs_a[name] + runs_b[name])
        exact = "identical" if len(digests) == 1 else "DIFFERENT"
        lines.append(f"{name:21s} digest {exact}; failed repetitions/jobs: {failed}")
        if len(digests) != 1 or failed:
            code = 1
    only = sorted(set(runs_a) ^ set(runs_b))
    if only:
        lines.append(f"not in both sets, skipped: {', '.join(only)}")
    return "\n".join(lines), code


def compare_files(path_a: str, path_b: str) -> Tuple[str, int]:
    from .harness import SPEC

    return compare_sets(load(path_a), load(path_b), SPEC)
