"""Persistent job queue: the state machine replayed from the journal.

State machine (every arrow is one durable journal operation)::

                 submit                lease
    (unknown) ──────────▶  pending ──────────▶  leased
                           ▲ ▲  ▲                 │ │ │
               requeue     │ │  │    requeue      │ │ └─ renew (loops)
       (attempts remain) ──┘ │  └─────────────────┘ │
                             │  (lease expired /    │
                             │   worker failure)    │ done / failed
                             │                      ▼
                             └──── requeue ──── done  /  failed (terminal)
                              (store entry lost,
                               seen on resubmit)

Invariants the tests in ``tests/fleet`` pin down:

* **No double lease** — ``lease`` only fires on a *pending* job, checked
  under the journal writer lock after syncing the latest state, so two
  racing workers can never both claim a key.
* **Lease expiry requeues, never loses** — a worker that vanishes
  (``kill -9``) simply stops renewing; once ``expires`` passes,
  :meth:`JobQueue.requeue_expired` makes the job pending again (or
  terminally failed once ``max_attempts`` leases have been burned).
* **At-least-once is safe** — an expired-but-alive "zombie" worker may
  still finish its run; its ``done`` is accepted whatever the current
  state, because results are content-addressed and deterministic.
* **Done means readable** — a resubmitted ``done`` job whose store
  entry no longer reads back is requeued (attempts reset), so a lost
  entry is recomputed, never reported as a result.
* **Replay is total** — queue state is a pure function of the journal
  prefix; a truncated final line (torn write) is skipped by the journal
  layer and the lost operation re-derives (expiry, store hit).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .journal import Journal

__all__ = ["JOB_STATES", "JobState", "JobQueue"]

#: the queue states a job can be in
JOB_STATES = ("pending", "leased", "done", "failed")

#: default lease time-to-live (wall seconds) — long enough for a slow
#: simulation chunk between renewals, short enough to notice dead workers
DEFAULT_TTL = 30.0

#: default cap on leases per job before it is marked terminally failed
DEFAULT_MAX_ATTEMPTS = 5


@dataclass
class JobState:
    """Replayed state of one job key."""

    key: str
    kind: str
    params: Dict[str, Any]
    sweep: str
    priority: int
    seq: int  # submission order, the FIFO tiebreak within a priority
    state: str = "pending"
    worker: Optional[str] = None
    expires: Optional[float] = None
    attempts: int = 0  # leases burned so far
    error: Optional[str] = None
    store: Optional[str] = None  # "fresh" | "hit" once done


class JobQueue:
    """Journal-backed queue shared by every process of one fleet.

    Each process holds its own instance; mutations take the journal
    writer lock, replay any operations appended by other processes, then
    validate and append their own — so the in-memory mirror is always
    consistent with the durable log at the moment of the transition.
    """

    def __init__(self, root: Union[str, Path], *,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        self.journal = Journal(root)
        self.max_attempts = int(max_attempts)
        self.jobs: Dict[str, JobState] = {}
        self.sweeps: Dict[str, List[str]] = {}  # sweep -> keys, submit order
        self._ready: List[tuple] = []  # lazy heap of (-priority, seq, key)
        self._seq = 0
        self.requeues = 0  # requeue operations replayed so far
        self.sync()

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Apply journal operations appended since the last sync."""
        for rec in self.journal.read_new():
            self._apply(rec)

    def _apply(self, rec: Dict[str, Any]) -> None:
        op = rec["op"]
        key = rec["key"]
        if op == "submit":
            if key in self.jobs:
                return  # duplicate submit: first one wins
            job = JobState(
                key=key, kind=rec["kind"], params=rec["params"],
                sweep=rec["sweep"], priority=int(rec["priority"]),
                seq=self._seq,
            )
            self._seq += 1
            self.jobs[key] = job
            self.sweeps.setdefault(job.sweep, []).append(key)
            self._push_ready(job)
            return
        job = self.jobs.get(key)
        if job is None:
            return  # op for an unknown key (foreign/corrupt log): ignore
        if op == "lease":
            job.state = "leased"
            job.worker = rec["worker"]
            job.expires = float(rec["expires"])
            job.attempts += 1
        elif op == "renew":
            if job.state == "leased" and job.worker == rec["worker"]:
                job.expires = float(rec["expires"])
        elif op == "done":
            job.state = "done"
            job.worker = rec["worker"]
            job.store = rec["store"]
            job.expires = None
            job.error = None
        elif op == "failed":
            job.state = "failed"
            job.worker = rec["worker"]
            job.error = rec["error"]
            job.expires = None
        elif op == "requeue":
            if job.state in ("leased", "done"):
                if job.state == "done":  # its store entry was lost: a new life
                    job.attempts = 0
                    job.store = None
                job.state = "pending"
                job.worker = None
                job.expires = None
                self.requeues += 1
                self._push_ready(job)

    def _push_ready(self, job: JobState) -> None:
        heapq.heappush(self._ready, (-job.priority, job.seq, job.key))

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def submit(self, key: str, kind: str, params: Dict[str, Any], *,
               sweep: str = "default", priority: int = 0) -> bool:
        """Durably add one job; returns ``False`` if the key is known.

        Submission is idempotent by key — re-submitting a sweep that
        partially ran resumes it instead of duplicating work.
        """
        with self.journal.locked():
            self.sync()
            if key in self.jobs:
                return False
            self.journal.append(
                "submit", key=key, kind=kind, params=params,
                sweep=sweep, priority=int(priority),
            )
            self.sync()  # consume our own record; _apply must run exactly once
            return True

    def lease(self, worker: str, *, ttl: float = DEFAULT_TTL,
              now: Optional[float] = None) -> Optional[JobState]:
        """Claim the highest-priority pending job for *worker*, or ``None``.

        The claim happens under the writer lock *after* replaying other
        processes' operations, which is the double-lease guard: a job
        someone else leased a millisecond ago is no longer pending here.
        """
        now = time.time() if now is None else now
        with self.journal.locked():
            self.sync()
            while self._ready:
                _, _, key = heapq.heappop(self._ready)
                job = self.jobs.get(key)
                if job is None or job.state != "pending":
                    continue  # stale heap entry (leased/finished elsewhere)
                self.journal.append(
                    "lease", key=key, worker=worker, expires=now + float(ttl),
                )
                self.sync()
                return job
            return None

    def renew(self, key: str, worker: str, *, ttl: float = DEFAULT_TTL,
              now: Optional[float] = None) -> bool:
        """Extend *worker*'s lease on *key*; ``False`` if it no longer
        holds the lease (expired and re-leased elsewhere)."""
        now = time.time() if now is None else now
        with self.journal.locked():
            self.sync()
            job = self.jobs.get(key)
            if job is None or job.state != "leased" or job.worker != worker:
                return False
            self.journal.append(
                "renew", key=key, worker=worker, expires=now + float(ttl),
            )
            self.sync()
            return True

    def done(self, key: str, worker: str, *, store: str = "fresh") -> None:
        """Mark *key* finished (*store* is ``"fresh"`` or ``"hit"``).

        Accepted regardless of current state: a zombie worker whose lease
        expired may still land a valid, deterministic result — done wins.
        """
        with self.journal.locked():
            self.sync()
            job = self.jobs.get(key)
            if job is None or job.state == "done":
                return  # unknown or already finished: idempotent
            self.journal.append("done", key=key, worker=worker, store=store)
            self.sync()

    def fail(self, key: str, worker: str, error: str, *,
             final: bool = False) -> str:
        """Record a failed attempt; requeue while attempts remain.

        *final* marks the job failed even with leases left — the caller's
        tighter budget (``run_jobs(retries=)``) is spent.  Returns
        the job's resulting state (``"pending"`` when requeued,
        ``"failed"`` when its attempt budget is exhausted).
        """
        with self.journal.locked():
            self.sync()
            job = self.jobs.get(key)
            if job is None or job.state in ("done", "failed"):
                return job.state if job is not None else "failed"
            if job.attempts < self.max_attempts and not final:
                self.journal.append(
                    "requeue", key=key, reason=f"attempt failed: {error[:200]}",
                )
            else:
                self.journal.append(
                    "failed", key=key, worker=worker, error=error[:500],
                )
            self.sync()
            return job.state

    def _requeue_lost(self, key: str) -> bool:
        """Send a ``done`` job whose store entry is gone back to pending.

        :meth:`Fleet.submit` calls this when a resubmitted key is done in
        the journal but its entry no longer reads back; the next drain
        recomputes it.  False when the job is no longer ``done`` (another
        process requeued it first).
        """
        with self.journal.locked():
            self.sync()
            job = self.jobs.get(key)
            if job is None or job.state != "done":
                return False
            self.journal.append("requeue", key=key, reason="store_entry_lost")
            self.sync()
            return True

    def requeue_expired(self, *, now: Optional[float] = None) -> List[str]:
        """Return expired leases to pending (the dead-worker recovery).

        A job whose attempt budget is already burned is marked terminally
        failed instead of looping through doomed leases forever.
        """
        now = time.time() if now is None else now
        recovered: List[str] = []
        with self.journal.locked():
            self.sync()
            expired = [
                job for job in self.jobs.values()
                if job.state == "leased" and job.expires is not None
                and job.expires <= now
            ]
            for job in expired:
                if job.attempts >= self.max_attempts:
                    self.journal.append(
                        "failed", key=job.key, worker=job.worker,
                        error=f"lease expired after {job.attempts} attempts",
                    )
                else:
                    self.journal.append(
                        "requeue", key=job.key, reason="lease_expired",
                    )
                recovered.append(job.key)
            if expired:
                self.sync()
        return recovered

    # ------------------------------------------------------------------
    # queries (read-only; sync() first for freshness)
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Jobs per state, e.g. ``{"pending": 3, "leased": 1, ...}``."""
        out = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            out[job.state] += 1
        return out

    def status(self) -> Dict[str, Any]:
        """The fleet's summary, folded from the journal alone.

        ``counts`` (jobs per state), ``sweeps`` (the same per sweep),
        ``computed`` (done jobs: ``fresh`` runs vs store ``hit``s),
        ``requeues`` (replayed requeue operations) and ``workers`` (holders
        of an unexpired lease — a killed drain drops out once its TTL
        passes).  ``Fleet.status``, ``python -m repro.fleet status`` and
        ``python -m repro.obs report`` all render this dict.
        """
        now = time.time()
        sweeps = {}
        for sweep, keys in self.sweeps.items():
            per = sweeps[sweep] = {state: 0 for state in JOB_STATES}
            for key in keys:
                per[self.jobs[key].state] += 1
        done = [job.store for job in self.jobs.values() if job.state == "done"]
        return {
            "counts": self.counts(),
            "sweeps": sweeps,
            "computed": {"fresh": len(done) - done.count("hit"),
                         "hit": done.count("hit")},
            "requeues": self.requeues,
            "workers": sorted({job.worker for job in self.jobs.values()
                               if job.state == "leased" and job.expires > now}),
        }

    def drained(self) -> bool:
        """True when nothing is pending or leased (all jobs terminal)."""
        return all(j.state in ("done", "failed") for j in self.jobs.values())

    def sweep_keys(self, sweep: str) -> List[str]:
        """Keys of *sweep* in submission order (empty for unknown sweeps)."""
        return list(self.sweeps.get(sweep, ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobQueue {self.counts()} at {self.journal.root}>"
