"""One fold of a run directory: the reader behind ``obs report``.

A run directory (a runner cache dir, or a fleet dir) holds three records
of the same jobs, and :class:`RunView` is the only code that reads them:

* ``<key[:2]>/<key>.json`` — the cache entries (:mod:`repro.runner.cache`),
  one per job and the durable post-hoc record: a fresh job's ``meta``
  says what it cost and observed, ``params`` what it was and
  ``payload`` what it measured.  ``validation/verdict-*.json`` are the
  ``repro.validate`` verdicts; an unreadable file of either kind is a
  warning.  :func:`scheme_summary` rolls the job records up per scheme.
* ``events.jsonl`` — the live bus (:mod:`repro.obs.bus`): job lifecycle,
  phases and heartbeats, appended while the sweep is still executing.
  The view tails it incrementally (:class:`~repro.obs.bus.JsonlTail`),
  so refreshing is cheap even against a multi-megabyte bus file.
* ``journal.jsonl`` — in a fleet directory, the queue's only record
  (:mod:`repro.fleet`); the fleet rollup is its
  :meth:`~repro.fleet.queue.JobQueue.status` fold.

Job rows are keyed by spec hash, the key entries and bus events share
(``JobSpec.cache_key``): an entry supplies what the job was and what it
cost, and the bus overlays its live state.  So a bus-off directory
still lists one ``done`` row per entry, and a job the bus only saw
served from the cache still says what it is.

Files are written atomically and mostly once (entries are
content-addressed), so each is parsed once: a refresh lists the
directory and parses only the files whose (inode, size, mtime) stamp it
has not seen.  The inode alone would not do: :func:`repro.atomic.atomic_write`
renames a fresh temp file over the target, so two rewrites can land
back on the inode the last refresh saw.

Everything is read-only: the view never writes into the run directory,
so pointing it at a live sweep cannot perturb results.  All accessors
return JSON-clean dicts/lists.
"""

from __future__ import annotations

import json
import math
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .bus import BUS_FILENAME, JsonlTail, validate_event

__all__ = ["RunView", "scheme_summary"]

#: job states a key can be in, in report order
JOB_STATES = ("running", "retrying", "done", "failed", "cached")

#: job-record fields a job row carries (the bus overlays its own on top)
_ROW_FIELDS = ("kind", "scheme", "seed", "wall_time", "events",
               "attempts", "peak_rss_kb", "phases")

#: where ``python -m repro.validate run`` leaves its verdicts
VALIDATION_DIR = "validation"


def _job_record(entry: Any, key: str, path: str) -> dict:
    """Flatten one cache entry into a job record, or raise ``ValueError``.

    The record is the entry's ``meta`` with ``key``/``kind``, the
    ``scheme``/``seed`` of its params, the scalar fields of its payload
    as ``result`` and the entry's ``path``.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"entry is {type(entry).__name__}, not an object")
    params, meta = entry.get("params"), entry.get("meta")
    if (entry.get("key") != key or "payload" not in entry
            or not isinstance(params, dict) or not isinstance(meta, dict)):
        raise ValueError("not a cache entry for its path")
    record = dict(meta, key=key, kind=entry.get("kind"),
                  scheme=params.get("scheme"), seed=params.get("seed"),
                  path=path)
    payload = entry["payload"]
    if isinstance(payload, dict):
        record["result"] = {
            k: v for k, v in payload.items()
            if isinstance(v, (int, float, str, bool)) or v is None
        }
    return record


def _validation_records(verdict: Any) -> List[dict]:
    """One record per figure of a verdict file, or raise ``ValueError``."""
    figures = verdict.get("figures") if isinstance(verdict, dict) else None
    if not isinstance(figures, list) or not all(isinstance(f, dict) for f in figures):
        raise ValueError("not a verdict")
    return [
        {
            "figure": fig.get("figure"),
            "tier": verdict.get("tier"),
            "status": fig.get("status"),
            "wall_time": fig.get("wall_time"),
            "deviations_pct": {m.get("id"): m.get("deviation_pct")
                               for m in fig.get("metrics") or []
                               if isinstance(m, dict)},
        }
        for fig in figures
    ]


def scheme_summary(records: List[dict]) -> Dict[str, dict]:
    """Numeric per-scheme rollup of a set of job records.

    Groups by ``scheme`` (falling back to ``kind``) and returns,
    per group: job count, summed wall seconds, summed events, events/s,
    and the mean ``drop_rate`` / ``norm_queue`` / ``utilization`` of the
    jobs that reported them (``None`` when none did).  This is the
    aggregation behind the report's per-scheme table.
    """
    by_scheme: Dict[str, dict] = {}
    acc: Dict[str, dict] = {}
    for m in records:
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

    Thread-safe: a single lock serializes the fold, so several threads
    may share one view.  Construct once per directory and call
    :meth:`refresh` before reading; the fold is what the last refresh
    saw.  :attr:`records` are its job records (one per cache
    entry), :attr:`validations` its per-figure verdict records and
    :attr:`warnings` the files it could not read.
    """

    def __init__(self, run_dir: Union[str, Path]) -> None:
        """Watch *run_dir* (a runner cache dir or a fleet dir)."""
        self.run_dir = Path(run_dir)
        self.bus_path = self.run_dir / BUS_FILENAME
        self.records: List[dict] = []
        self.validations: List[dict] = []
        self.warnings: List[dict] = []
        self._parsed: Dict[str, Tuple[tuple, Any]] = {}  # path -> (stamp, value)
        self._lock = threading.Lock()
        self._tail = JsonlTail(self.bus_path)
        self._live: Dict[str, dict] = {}
        self._queue = None  # a JobQueue, opened once a journal shows

    # ------------------------------------------------------------------
    # the fold

    def refresh(self) -> int:
        """Re-list the directory's entries and verdicts and apply bus
        events appended since the last call; return how many bus events
        were applied."""
        with self._lock:
            self._load_files()
            events = self._tail.records(validate_event)
            for ev in events:
                self._apply(ev)
            return len(events)

    def _load_files(self) -> None:
        """Fold the entries and verdicts on disk, parsing only new files."""
        parsed: Dict[str, Tuple[tuple, Any]] = {}
        records: List[dict] = []
        validations: List[dict] = []
        warnings: List[dict] = []

        def take(item: os.DirEntry, parse: Callable[[Any], Any]) -> Any:
            hit = self._parsed.get(item.path)
            try:
                st = item.stat()
                stamp = (st.st_ino, st.st_size, st.st_mtime_ns)
                if hit is None or hit[0] != stamp:
                    with open(item.path, "r", encoding="utf-8") as fh:
                        hit = (stamp, parse(json.load(fh)))
            except (OSError, ValueError) as exc:
                warnings.append({"path": item.path,
                                 "error": f"{type(exc).__name__}: {exc}"})
                return None
            parsed[item.path] = hit
            return hit[1]

        validation_dir = str(self.run_dir / VALIDATION_DIR)
        for dirpath, item in sorted(_scan(str(self.run_dir)), key=lambda f: f[1].path):
            name = item.name
            stem = name[:-len(".json")]
            if dirpath == validation_dir and name.startswith("verdict-"):
                validations.extend(take(item, _validation_records) or ())
            elif "." not in stem and os.path.basename(dirpath) == stem[:2]:
                record = take(item, lambda e: _job_record(e, stem, item.path))
                if record is not None:
                    records.append(record)
        self._parsed = parsed
        self.records, self.validations, self.warnings = records, validations, warnings

    def _apply(self, ev: dict) -> None:
        etype = ev.get("type")
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
        elif etype == "heartbeat":
            job.update(events=ev.get("events"),
                       peak_rss_kb=ev.get("peak_rss_kb"))

    # ------------------------------------------------------------------
    # accessors

    def fleet(self) -> Optional[dict]:
        """Fleet rollup; ``None`` unless a journal exists.

        Exactly :meth:`repro.fleet.queue.JobQueue.status` over the
        directory's ``journal.jsonl`` — what ``python -m repro.fleet
        status`` prints, so ``workers`` are the holders of an unexpired
        lease and a killed drain drops out once its TTL passes.
        """
        with self._lock:
            if self._queue is None:
                # local: importing repro.obs must not load the fleet
                from ..fleet.journal import JOURNAL_FILENAME
                from ..fleet.queue import JobQueue

                if not (self.run_dir / JOURNAL_FILENAME).exists():
                    return None
                self._queue = JobQueue(self.run_dir)
            self._queue.sync()
            return self._queue.status()

    def jobs(self) -> List[dict]:
        """One row per job key, newest first: the entry's facts, with the
        bus's state laid over them."""
        rows: Dict[str, dict] = {}
        with self._lock:
            for m in self.records:
                key = m["key"]
                rows[key] = {f: m[f] for f in _ROW_FIELDS if f in m}
                rows[key].update(key=key, state="done")
            for key, live in self._live.items():
                rows.setdefault(key, {}).update(live)
        jobs = list(rows.values())
        jobs.sort(key=lambda j: j.get("started_ts") or 0.0, reverse=True)
        return jobs

    def metrics(self) -> dict:
        """Per-scheme rollup of the job records (unreadable files as
        warnings)."""
        with self._lock:
            return {
                "jobs": len(self.records),
                "schemes": scheme_summary(self.records),
                "warnings": list(self.warnings),
            }


def _scan(root: str):
    """Yield ``(dirpath, DirEntry)`` for every ``*.json`` file under *root*."""
    stack = [root]
    while stack:
        dirpath = stack.pop()
        try:
            with os.scandir(dirpath) as it:
                for item in it:
                    if item.is_dir(follow_symlinks=False):
                        stack.append(item.path)
                    elif item.name.endswith(".json"):
                        yield dirpath, item
        except OSError:
            continue
