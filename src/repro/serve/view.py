"""Run-state aggregation for the live dashboard.

:class:`RunView` merges the on-disk sources a run directory offers into
one queryable picture:

* ``events.jsonl`` — the live bus (:mod:`repro.obs.bus`): job lifecycle,
  phases and heartbeats, appended while the sweep is still executing.
  The view tails it incrementally (:class:`~repro.obs.bus.JsonlTail`),
  so refreshing is cheap even against a multi-megabyte bus file.
* ``journal.jsonl`` — in a fleet directory, the queue's only record
  (:mod:`repro.fleet`); the fleet rollup is its
  :meth:`~repro.fleet.queue.JobQueue.status` fold.
* ``*.manifest.json`` — the durable post-hoc record, rolled up with
  :func:`repro.obs.report.scheme_summary` for per-scheme metrics.

Everything is read-only: the view never writes into the run directory,
so pointing it (or the server built on it) at a live sweep cannot
perturb results.  All public accessors return JSON-clean dicts/lists —
they are served verbatim by ``python -m repro.serve``'s ``/api/*``
endpoints and reused by tests.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..fleet.journal import JOURNAL_FILENAME
from ..fleet.queue import JobQueue
from ..obs.bus import BUS_FILENAME, JsonlTail, validate_event
from ..obs.manifest import load_manifests_with_warnings
from ..obs.report import scheme_summary

__all__ = ["RunView"]

#: job states a key can be in, in dashboard display order
JOB_STATES = ("running", "retrying", "done", "failed", "cached")


class RunView:
    """Aggregated, refreshable state of one run directory.

    Thread-safe: the HTTP server refreshes from several request threads;
    a single lock serializes event application.  Construct once per
    served directory and call :meth:`refresh` before reading.
    """

    def __init__(self, run_dir: Union[str, Path],
                 history: Optional[Union[str, Path]] = None) -> None:
        """Watch *run_dir* (a runner cache dir); *history* optionally
        points at a ``BENCH_history.jsonl`` trajectory to expose."""
        self.run_dir = Path(run_dir)
        self.bus_path = self.run_dir / BUS_FILENAME
        self.history_path = Path(history) if history else None
        self._lock = threading.Lock()
        self._tail = JsonlTail(self.bus_path)
        self._jobs: Dict[str, dict] = {}
        self._runs: List[dict] = []
        self._event_count = 0
        self._queue: Optional[JobQueue] = None  # opened once a journal shows

    # ------------------------------------------------------------------
    # bus tailing

    def refresh(self) -> int:
        """Apply bus events appended since the last call; return how many."""
        with self._lock:
            return self._refresh_locked()

    def _refresh_locked(self) -> int:
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
        job = self._jobs.setdefault(str(key), {"key": str(key), "state": None})
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
            if not (self.run_dir / JOURNAL_FILENAME).exists():
                return None
            self._queue = JobQueue(self.run_dir)
        self._queue.sync()
        return self._queue.status()

    def runs(self) -> dict:
        """``/api/runs`` payload: run-level summary plus job-state counts."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
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
                "jobs_seen": len(self._jobs),
                "fleet": self._fleet_locked(),
            }

    def jobs(self) -> List[dict]:
        """``/api/jobs`` payload: one record per job key, newest first."""
        with self._lock:
            jobs = [dict(j) for j in self._jobs.values()]
        jobs.sort(key=lambda j: j.get("started_ts") or 0.0, reverse=True)
        return jobs

    def metrics(self) -> dict:
        """``/api/metrics`` payload: per-scheme rollup from the manifests.

        Read fresh from disk each call (manifests land as jobs finish);
        validation manifests are excluded, unreadable ones surfaced as
        warnings instead of failing the endpoint.
        """
        manifests, warnings = load_manifests_with_warnings(self.run_dir)
        manifests = [m for m in manifests if m.get("kind") != "validation"]
        return {
            "jobs": len(manifests),
            "schemes": scheme_summary(manifests),
            "warnings": warnings,
        }

    def history(self, last: int = 50) -> dict:
        """``/api/history`` payload: tail of the bench-history trajectory."""
        rows: List[dict] = []
        if self.history_path is not None:
            try:
                with open(self.history_path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            rec = json.loads(line)
                        except ValueError:
                            continue
                        if isinstance(rec, dict):
                            rows.append(rec)
            except OSError:
                pass
        return {
            "file": str(self.history_path) if self.history_path else None,
            "entries": rows[-last:],
        }

    # ------------------------------------------------------------------
    # SSE support

    def tail_events(self, from_start: bool = False, poll: float = 0.5,
                    stop=None, keepalive_every: float = 15.0):
        """Yield ``(kind, text)`` pairs for an SSE stream, forever.

        *kind* is ``"event"`` (text = one raw JSON line from the bus) or
        ``"keepalive"``.  Starts at end-of-file unless *from_start*;
        polls every *poll* seconds; *stop* is an optional
        ``threading.Event`` that ends the generator (tests use it — HTTP
        clients just disconnect).  A keepalive is yielded after every
        *keepalive_every* seconds without bus traffic so proxies and
        slow consumers keep idle connections open (tests shrink it to
        exercise the path without waiting 15 real seconds).
        """
        tail = JsonlTail(self.bus_path, 0 if from_start else self._size())
        idle = 0.0
        while stop is None or not stop.is_set():
            lines = tail.lines()
            for line in lines:
                yield "event", line.decode("utf-8", "replace")
            if lines:
                idle = 0.0
                continue
            time.sleep(poll)
            idle += poll
            if idle >= keepalive_every:
                yield "keepalive", ""
                idle = 0.0

    def _size(self) -> int:
        try:
            return self.bus_path.stat().st_size
        except OSError:
            return 0
