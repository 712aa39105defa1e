"""One fold of a run directory: the reader behind report, diff and dashboard.

A run directory (a runner cache dir, or a fleet dir) holds three records
of the same jobs, and :class:`RunView` is the only code that reads them:

* ``*.manifest.json`` — the durable post-hoc record, one per fresh job,
  split into job manifests, ``repro.validate`` verdict manifests and
  warnings for unreadable files; :func:`scheme_summary` rolls the job
  manifests up per scheme.
* ``events.jsonl`` — the live bus (:mod:`repro.obs.bus`): job lifecycle,
  phases and heartbeats, appended while the sweep is still executing.
  The view tails it incrementally (:class:`~repro.obs.bus.JsonlTail`),
  so refreshing is cheap even against a multi-megabyte bus file.
* ``journal.jsonl`` — in a fleet directory, the queue's only record
  (:mod:`repro.fleet`); the fleet rollup is its
  :meth:`~repro.fleet.queue.JobQueue.status` fold.

Job rows are keyed by spec hash, the key manifests and bus events share
(``JobSpec.cache_key``): a manifest supplies what the job was and what
it cost, and the bus overlays its live state.  So a bus-off directory
still lists one ``done`` row per manifest, and a job the bus only saw
served from the cache still says what it is.

Everything is read-only: the view never writes into the run directory,
so pointing it (or the server built on it) at a live sweep cannot
perturb results.  All accessors return JSON-clean dicts/lists — they are
served verbatim by ``python -m repro.serve``'s ``/api/*`` endpoints.
"""

from __future__ import annotations

import math
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from .bus import BUS_FILENAME, JsonlTail, validate_event
from .manifest import load_manifests_with_warnings

__all__ = ["RunView", "scheme_summary"]

#: job states a key can be in, in dashboard display order
JOB_STATES = ("running", "retrying", "done", "failed", "cached")

#: manifest fields a job row carries (the bus overlays its own on top)
_MANIFEST_FIELDS = ("kind", "scheme", "seed", "wall_time", "events",
                    "attempts", "peak_rss_kb", "phases")


def scheme_summary(manifests: List[dict]) -> Dict[str, dict]:
    """Numeric per-scheme rollup of a manifest set.

    Groups by hoisted ``scheme`` (falling back to ``kind``) and returns,
    per group: job count, summed wall seconds, summed events, events/s,
    and the mean ``drop_rate`` / ``norm_queue`` / ``utilization`` of the
    jobs that reported them (``None`` when none did).  This is the shared
    aggregation behind the report table, the live dashboard's
    ``/api/metrics``, and ``python -m repro.obs diff``.
    """
    by_scheme: Dict[str, dict] = {}
    acc: Dict[str, dict] = {}
    for m in manifests:
        key = str(m.get("scheme") or m.get("kind") or "?")
        agg = acc.setdefault(
            key, {"jobs": 0, "wall": 0.0, "events": 0, "drop": [], "queue": [], "util": []}
        )
        agg.setdefault("delay", [])
        agg["jobs"] += 1
        agg["wall"] += m.get("wall_time") or 0.0
        agg["events"] += m.get("events") or 0
        result = m.get("result") or {}
        for field, dest in (("drop_rate", "drop"), ("norm_queue", "queue"),
                            ("utilization", "util")):
            v = result.get(field)
            if isinstance(v, (int, float)) and not math.isnan(v):
                agg[dest].append(float(v))
        # mean queue delay across this job's --obs metric snapshots
        for name, snap in (m.get("metrics") or {}).items():
            if (name.startswith("queue.") and name.endswith(".delay")
                    and isinstance(snap, dict) and snap.get("count")):
                agg["delay"].append(snap["sum"] / snap["count"])

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    for scheme in sorted(acc):
        agg = acc[scheme]
        by_scheme[scheme] = {
            "jobs": agg["jobs"],
            "wall_time": agg["wall"],
            "events": agg["events"],
            "events_per_sec": agg["events"] / agg["wall"] if agg["wall"] > 0 else 0.0,
            "drop_rate": mean(agg["drop"]),
            "norm_queue": mean(agg["queue"]),
            "utilization": mean(agg["util"]),
            "queue_delay": mean(agg["delay"]),
        }
    return by_scheme


class RunView:
    """Refreshable fold of one run directory.

    Thread-safe: the HTTP server refreshes from several request threads;
    a single lock serializes the fold.  Construct once per directory and
    call :meth:`refresh` before reading; the fold is what the last
    refresh saw.  :attr:`manifests`, :attr:`validations` and
    :attr:`warnings` are the split of the manifests it loaded.
    """

    def __init__(self, run_dir: Union[str, Path]) -> None:
        """Watch *run_dir* (a runner cache dir or a fleet dir)."""
        self.run_dir = Path(run_dir)
        self.bus_path = self.run_dir / BUS_FILENAME
        self.manifests: List[dict] = []
        self.validations: List[dict] = []
        self.warnings: List[dict] = []
        self._lock = threading.Lock()
        self._tail = JsonlTail(self.bus_path)
        self._live: Dict[str, dict] = {}
        self._runs: List[dict] = []
        self._event_count = 0
        self._queue = None  # a JobQueue, opened once a journal shows

    # ------------------------------------------------------------------
    # the fold

    def refresh(self) -> int:
        """Reload the manifests and apply bus events appended since the
        last call; return how many bus events were applied."""
        manifests, warnings = load_manifests_with_warnings(self.run_dir)
        with self._lock:
            self.manifests = [m for m in manifests if m.get("kind") != "validation"]
            self.validations = [m for m in manifests if m.get("kind") == "validation"]
            self.warnings = warnings
            events = self._tail.records(validate_event)
            for ev in events:
                self._apply(ev)
            return len(events)

    def _apply(self, ev: dict) -> None:
        self._event_count += 1
        etype = ev.get("type")
        if etype == "run_started":
            self._runs.append({
                "started_ts": ev.get("ts"),
                "finished_ts": None,
                "total": ev.get("total"),
                "stats": None,
            })
            return
        if etype == "run_finished":
            for run in reversed(self._runs):
                if run["finished_ts"] is None:
                    run["finished_ts"] = ev.get("ts")
                    run["stats"] = ev.get("stats")
                    break
            return
        key = ev.get("key")
        if key is None:
            return
        job = self._live.setdefault(str(key), {"key": str(key), "state": None})
        if etype == "job_started":
            job.update(
                state="running",
                kind=ev.get("kind"),
                scheme=ev.get("scheme"),
                seed=ev.get("seed"),
                attempt=ev.get("attempt"),
                started_ts=ev.get("ts"),
            )
        elif etype == "job_finished":
            job.update(
                state="done",
                wall_time=ev.get("wall_time"),
                events=ev.get("events"),
                attempts=ev.get("attempts"),
                finished_ts=ev.get("ts"),
            )
        elif etype == "job_failed":
            job.update(
                state="failed",
                error=ev.get("error"),
                attempts=ev.get("attempts"),
                finished_ts=ev.get("ts"),
            )
        elif etype == "job_retried":
            job.update(state="retrying", attempt=ev.get("attempt"))
        elif etype == "job_cached":
            job.update(state="cached", finished_ts=ev.get("ts"))
        elif etype == "job_resumed":
            job["resumed_at"] = ev.get("resumed_at")
        elif etype == "phase_started":
            job["phase"] = ev.get("phase")
        elif etype == "phase_finished":
            if job.get("phase") == ev.get("phase"):
                job["phase"] = None
        elif etype == "heartbeat":
            prev_sched, prev_ts = job.get("sched"), job.get("beat_ts")
            job.update(
                sim_now=ev.get("sim_now"),
                events=ev.get("events"),
                sched=ev.get("sched"),
                peak_rss_kb=ev.get("peak_rss_kb"),
                beat_ts=ev.get("ts"),
            )
            # live events/s from consecutive heartbeats' sched/ts deltas
            ts, sched = ev.get("ts"), ev.get("sched")
            if (None not in (prev_sched, prev_ts, ts, sched)
                    and ts > prev_ts and sched >= prev_sched):
                job["rate"] = (sched - prev_sched) / (ts - prev_ts)

    def _rows_locked(self) -> Dict[str, dict]:
        """Job rows by key: manifest facts first, the bus's state on top."""
        rows: Dict[str, dict] = {}
        for m in self.manifests:
            key = str(m.get("key") or m["_path"])
            rows[key] = {f: m[f] for f in _MANIFEST_FIELDS if f in m}
            rows[key].update(key=key, state="done")
        for key, live in self._live.items():
            rows.setdefault(key, {}).update(live)
        return rows

    # ------------------------------------------------------------------
    # API payloads

    def fleet(self) -> Optional[dict]:
        """Fleet rollup for ``/api/runs``; ``None`` unless a journal exists.

        Exactly :meth:`repro.fleet.queue.JobQueue.status` over the
        directory's ``journal.jsonl`` — what ``python -m repro.fleet
        status`` prints, so ``workers`` are the holders of an unexpired
        lease and a killed drain drops out once its TTL passes.
        """
        with self._lock:
            return self._fleet_locked()

    def _fleet_locked(self) -> Optional[dict]:
        if self._queue is None:
            # local: importing repro.obs must not load the fleet
            from ..fleet.journal import JOURNAL_FILENAME
            from ..fleet.queue import JobQueue

            if not (self.run_dir / JOURNAL_FILENAME).exists():
                return None
            self._queue = JobQueue(self.run_dir)
        self._queue.sync()
        return self._queue.status()

    def runs(self) -> dict:
        """``/api/runs`` payload: run-level summary plus job-state counts."""
        with self._lock:
            rows = self._rows_locked()
            counts = {state: 0 for state in JOB_STATES}
            for job in rows.values():
                state = job.get("state")
                if state in counts:
                    counts[state] += 1
            return {
                "run_dir": str(self.run_dir),
                "bus_file": str(self.bus_path),
                "bus_exists": self.bus_path.exists(),
                "event_count": self._event_count,
                "runs": [dict(r) for r in self._runs],
                "job_counts": counts,
                "jobs_seen": len(rows),
                "fleet": self._fleet_locked(),
            }

    def jobs(self) -> List[dict]:
        """``/api/jobs`` payload: one row per job key, newest first."""
        with self._lock:
            jobs = list(self._rows_locked().values())
        jobs.sort(key=lambda j: j.get("started_ts") or 0.0, reverse=True)
        return jobs

    def metrics(self) -> dict:
        """``/api/metrics`` payload: per-scheme rollup of the job manifests
        (validation manifests excluded, unreadable ones as warnings)."""
        with self._lock:
            return {
                "jobs": len(self.manifests),
                "schemes": scheme_summary(self.manifests),
                "warnings": list(self.warnings),
            }
