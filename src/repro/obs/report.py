"""Turn a run directory of job records/traces into a readable report.

The report CLI (``python -m repro.obs report <run-dir>``) is pure
post-processing: it renders the run directory's one fold
(:class:`repro.obs.rundir.RunView` — the cache entries and verdicts, the
bus and the fleet journal when there are any) plus the ``*.trace.jsonl``
files the runner wrote, so it works on any run, finished or still
executing — including one produced on another machine — without
re-simulating anything.

Where a sweep's wall-clock went shows in three places: the ``jobs``
line counts the jobs the bus saw running, retrying, failed or served
from the cache; the per-phase and slowest-job tables split the time
the fresh jobs took; and in a fleet directory the ``fleet`` section
counts queue states, fresh runs against store hits, requeued leases
and live workers.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from .rundir import JOB_STATES, RunView
from .trace import iter_trace

__all__ = ["generate_report", "format_table"]


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Left-aligned first column, right-aligned rest; plain text."""
    if not rows:
        return "(none)"
    table = [headers] + rows
    widths = [max(len(str(r[i])) for r in table) for i in range(len(headers))]
    lines = []
    for irow, row in enumerate(table):
        cells = [
            str(c).ljust(widths[i]) if i == 0 else str(c).rjust(widths[i])
            for i, c in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
        if irow == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt_secs(s: Optional[float]) -> str:
    return "-" if s is None else f"{s:.3f}s"


def _fmt_rate(r: Optional[float]) -> str:
    if r is None or (isinstance(r, float) and math.isnan(r)):
        return "-"
    return f"{r:.4f}"


def _job_label(m: dict) -> str:
    bits = [str(m.get("kind", "?"))]
    if m.get("scheme"):
        bits.append(str(m["scheme"]))
    if m.get("seed") is not None:
        bits.append(f"seed={m['seed']}")
    return "/".join(bits)


def _scheme_rollup(schemes: Dict[str, dict]) -> List[List[str]]:
    rows = []
    for scheme, agg in schemes.items():
        rows.append([
            scheme, str(agg["jobs"]), _fmt_secs(agg["wall_time"]),
            f"{agg['events']:,}", f"{agg['events_per_sec']:,.0f}",
            _fmt_rate(agg["drop_rate"]), _fmt_rate(agg["norm_queue"]),
            _fmt_rate(agg["utilization"]),
        ])
    return rows


def _phase_rollup(records: List[dict]) -> List[List[str]]:
    totals: Dict[str, float] = {}
    for m in records:
        for name, secs in (m.get("phases") or {}).items():
            totals[name] = totals.get(name, 0.0) + secs
    grand = sum(totals.values())
    return [
        [name, _fmt_secs(secs), f"{100.0 * secs / grand:.1f}%" if grand else "-"]
        for name, secs in sorted(totals.items(), key=lambda kv: -kv[1])
    ]


def _queue_delay_summary(records: List[dict]) -> List[List[str]]:
    """Per-queue delay/drop summary from metrics snapshots (``--obs``)."""
    rows = []
    for m in records:
        metrics = m.get("metrics") or {}
        for name, snap in sorted(metrics.items()):
            if not (name.startswith("queue.") and name.endswith(".delay")):
                continue
            if not isinstance(snap, dict) or not snap.get("count"):
                continue
            label = name[len("queue."):-len(".delay")]
            drops = metrics.get(f"queue.{label}.drops", 0)
            enq = metrics.get(f"queue.{label}.enqueues", 0)
            marks = metrics.get(f"queue.{label}.marks", 0)
            arrivals = (drops or 0) + (enq or 0)
            mean_delay = snap["sum"] / snap["count"]
            rows.append([
                f"{_job_label(m)} {label}",
                f"{mean_delay * 1e3:.2f}ms",
                f"{(snap['max'] or 0.0) * 1e3:.2f}ms",
                str(snap["count"]),
                _fmt_rate(drops / arrivals if arrivals else None),
                str(marks),
            ])
    return rows


def _trace_summary(records: List[dict]) -> List[str]:
    # local: importing repro.obs must not load the runner
    from ..runner.cache import TRACE_SUFFIX

    lines: List[str] = []
    for m in records:
        path = Path(m["path"]).with_suffix(TRACE_SUFFIX)
        if not path.exists():
            continue
        trace_file = path.name
        counts: Dict[str, int] = {}
        delays: List[float] = []
        try:
            for rec in iter_trace(path):
                counts[rec["type"]] = counts.get(rec["type"], 0) + 1
                if rec["type"] == "queue_sample" and rec.get("delay") is not None:
                    delays.append(rec["delay"])
        except (OSError, ValueError) as exc:
            lines.append(f"  {trace_file}: unreadable ({exc})")
            continue
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        lines.append(f"  {_job_label(m)} [{trace_file}]")
        lines.append(f"    records: {summary or '(empty)'}")
        if delays:
            delays.sort()
            p95 = delays[min(len(delays) - 1, int(0.95 * len(delays)))]
            lines.append(
                f"    queue delay: mean={sum(delays)/len(delays)*1e3:.2f}ms "
                f"p95={p95*1e3:.2f}ms max={delays[-1]*1e3:.2f}ms"
            )
    return lines


def _state_counts(jobs: List[dict]) -> str:
    """``"1 failed, 2 cached"``: the jobs whose bus state is not
    ``done``, per state (empty when there are none)."""
    counts = Counter(j.get("state") for j in jobs)
    return ", ".join(f"{counts[state]} {state}" for state in JOB_STATES
                     if state != "done" and counts[state])


def _fleet_section(fleet: dict) -> str:
    """The journal's queue rollup (``python -m repro.fleet status``)."""
    computed = fleet["computed"]
    return "\n".join([
        "\n== fleet ==",
        ", ".join(f"{state} {n}" for state, n in fleet["counts"].items()),
        f"fresh {computed['fresh']}, store hits {computed['hit']}, "
        f"requeues {fleet['requeues']}",
        "workers " + (", ".join(fleet["workers"]) or "(none)"),
    ])


def generate_report(run_dir, top: int = 10, include_trace: bool = True) -> str:
    """Build the full text report for *run_dir*."""
    view = RunView(run_dir)
    view.refresh()
    records, validations = view.records, view.validations
    jobs = view.jobs()
    states = _state_counts(jobs)
    out: List[str] = []
    if not (records or validations or states):
        out.append(
            f"no job records found under {run_dir}\n"
            "(a run directory is a cache directory: point this at the "
            "--cache-dir of a cached run, e.g. "
            "`python -m repro.experiments fig6 --obs --cache-dir <run-dir>`; "
            "for paper-fidelity verdicts see `python -m repro.validate report`)"
        )
    else:
        out.append(f"run directory : {run_dir}")
        if states:
            note = f" ({states})"
        else:
            note = "" if records else " (validation verdicts only)"
        out.append(f"jobs          : {len(records)}{note}")

    if records:
        total_wall = sum(m.get("wall_time") or 0.0 for m in records)
        total_events = sum(m.get("events") or 0 for m in records)
        out.append(f"job wall time : {_fmt_secs(total_wall)}")
        out.append(f"sim events    : {total_events:,}")
        if total_wall > 0:
            out.append(f"events/s      : {total_events / total_wall:,.0f}")

        out.append("\n== events/s by scheme ==")
        out.append(format_table(
            ["scheme", "jobs", "wall", "events", "events/s",
             "drop_rate", "norm_queue", "util"],
            _scheme_rollup(view.metrics()["schemes"]),
        ))

        phases = _phase_rollup(records)
        if phases:
            out.append("\n== wall time by phase ==")
            out.append(format_table(["phase", "wall", "share"], phases))

        finished = [j for j in jobs if j.get("wall_time") is not None]
        slowest = sorted(finished, key=lambda j: -j["wall_time"])[:top]
        rows = []
        for j in slowest:
            wall = j["wall_time"]
            events = j.get("events") or 0
            rss = j.get("peak_rss_kb")
            rows.append([
                _job_label(j), _fmt_secs(wall), f"{events:,}",
                f"{events / wall:,.0f}" if wall > 0 else "-",
                f"{rss / 1024:.0f}MB" if rss else "-",
                str(j.get("attempts", 1)),
            ])
        out.append(f"\n== slowest jobs (top {len(rows)}) ==")
        out.append(format_table(
            ["job", "wall", "events", "events/s", "peak_rss", "attempts"], rows,
        ))

        qrows = _queue_delay_summary(records)
        if qrows:
            out.append("\n== queue delay / drop summary (from --obs metrics) ==")
            out.append(format_table(
                ["queue", "mean_delay", "max_delay", "samples", "drop_rate", "marks"],
                qrows,
            ))

        if include_trace:
            tlines = _trace_summary(records)
            if tlines:
                out.append("\n== traces ==")
                out.extend(tlines)

    fleet = view.fleet()
    if fleet is not None:
        out.append(_fleet_section(fleet))
    if validations:
        out.append(_validation_section(validations))
    if view.warnings:
        out.append(_warnings_section(view.warnings))
    return "\n".join(out)


def _warnings_section(warnings: List[dict]) -> str:
    """List files skipped as unreadable (torn or foreign)."""
    lines = [f"\n== skipped files ({len(warnings)} unreadable) =="]
    for w in warnings:
        lines.append(f"  {w['path']}: {w['error']}")
    lines.append("(left in place: the cache treats an unreadable entry as a "
                 "miss and rewrites it on the next run)")
    return "\n".join(lines)


def _validation_section(validations: List[dict]) -> str:
    """Summarize the paper-fidelity verdicts left by repro.validate."""
    rows = []
    for v in validations:
        devs = [d for d in (v.get("deviations_pct") or {}).values()
                if isinstance(d, (int, float))]
        worst = max(devs, key=abs) if devs else None
        rows.append([
            f"{v.get('figure', '?')} ({v.get('tier', '?')})",
            str(v.get("status", "?")),
            str(len(v.get("deviations_pct") or {})),
            f"{worst:+.2f}%" if worst is not None else "-",
            _fmt_secs(v.get("wall_time")),
        ])
    return (
        "\n== paper-fidelity validation (repro.validate) ==\n"
        + format_table(["figure", "status", "metrics", "worst_dev", "wall"], rows)
        + "\n(details: `python -m repro.validate report`)"
    )
