"""Fleet facade: submit sweeps, drain them, read results.

:class:`Fleet` ties the journal, the queue and the store together behind
a few verbs:

* :meth:`Fleet.submit` — dedupe each point against the content-addressed
  store (a point finished by *any* earlier sweep is acknowledged as a
  store hit without ever being leased), journal the rest, and queue
  again a known ``done`` point whose entry was lost;
* :meth:`Fleet.drain` / :meth:`Fleet.resume` — run
  :func:`repro.runner.run_jobs`' scheduler loop over the journal until
  every job is terminal: the same attempt driver, retry and crash
  detection as a plain ``run_jobs``.  Recovery is just another drain —
  a killed process's leases are requeued as they expire, and journal
  replay plus the store already encode the rest;
* :meth:`Fleet.results` — payloads for a sweep, in submission order,
  read back from the store;
* :meth:`Fleet.status` — :meth:`JobQueue.status`, the journal's fold.

A fleet directory is self-describing::

    <root>/journal.jsonl   operation log (the queue)
    <root>/journal.lock    writer mutex (flock)
    <root>/store/          content-addressed results (ResultCache layout)
    <root>/events.jsonl    telemetry bus (each drain's run_* / job_* events)

The journal is the fleet's only record of queue state; the bus carries
no copy of it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..obs.bus import BUS_FILENAME
from ..runner.cache import ResultCache
from ..runner.executor import Ticket, run_jobs
from ..runner.spec import JobSpec
from .queue import DEFAULT_MAX_ATTEMPTS, DEFAULT_TTL, JobQueue

__all__ = ["SubmitReceipt", "Fleet", "Leases", "resolve_fleet"]

@dataclass
class SubmitReceipt:
    """What :meth:`Fleet.submit` accepted, per sweep."""

    sweep: str
    keys: List[str] = field(default_factory=list)  # submit order, all points
    submitted: int = 0  # newly journaled as pending
    deduped: int = 0  # acknowledged from the store without running
    known: int = 0  # already in this fleet's queue (resubmission)

    def summary(self) -> Dict[str, Any]:
        """JSON-clean receipt (for ``submit --json``)."""
        return {
            "sweep": self.sweep,
            "jobs": len(self.keys),
            "submitted": self.submitted,
            "deduped": self.deduped,
            "known": self.known,
        }


class Fleet:
    """One fleet directory's scheduler-side handle.

    Every transition it makes is one journal record and nothing else;
    what it reports (:meth:`status`) is folded back out of the journal.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        store: Optional[Union[str, Path, ResultCache]] = None,
        bus=None,
        ttl: float = DEFAULT_TTL,
        checkpoint: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        """Open (creating if needed) the fleet at *root*.

        *store* defaults to ``<root>/store`` but may point anywhere — in
        particular at an existing runner cache directory, which makes
        every previously cached point a submit-time dedupe.  A fleet is
        a long-running service whose point includes live visibility, so
        unlike the runner's its bus (each drain's ``run_*`` / ``job_*``
        telemetry) is **on by default** at ``<root>/events.jsonl``;
        ``bus=False`` silences it, a path relocates it.  *ttl*,
        *checkpoint* and *max_attempts* apply to every drain of this
        handle.
        """
        self.root = Path(root)
        if isinstance(store, ResultCache):
            self.store = store
        else:
            self.store = ResultCache(store if store is not None
                                     else self.root / "store")
        self.ttl = float(ttl)
        self.checkpoint = checkpoint
        self.max_attempts = int(max_attempts)
        if bus is False:
            self.bus_path: Optional[Path] = None
        else:
            self.bus_path = (Path(bus).expanduser() if bus is not None
                             else self.root / BUS_FILENAME)
        self.queue = JobQueue(self.root, max_attempts=max_attempts)
        self._sweep_counter = 0

    # ------------------------------------------------------------------
    def submit(self, jobs: Iterable[Union[JobSpec, Tuple[str, Dict]]], *,
               sweep: Optional[str] = None, priority: int = 0) -> SubmitReceipt:
        """Enqueue *jobs* (specs or ``(kind, params)`` pairs) as one sweep.

        Dedupe happens here, not in drains: a job whose store entry
        reads back valid is journaled and immediately acknowledged
        ``done(store="hit")``, so drains converge without touching it.
        A damaged entry reads as a miss (and is removed), so the job is
        queued and recomputed, as ``run_jobs`` would.  Re-submitting an
        in-flight sweep is idempotent by key (counted in ``known``),
        which is how a crashed *submitter* recovers: just run the same
        submit again.  A known job the journal says is ``done`` but
        whose entry is missing or damaged is journaled ``requeue``
        (still counted in ``known``): the next drain recomputes it, so
        a lost entry never stands in for a result.
        """
        if sweep is None:
            sweep = self._fresh_sweep_name()
        receipt = SubmitReceipt(sweep=sweep)
        for item in jobs:
            spec = item if isinstance(item, JobSpec) else JobSpec(*item)
            key = spec.cache_key
            receipt.keys.append(key)
            fresh = self.queue.submit(key, spec.kind, dict(spec.params),
                                      sweep=sweep, priority=priority)
            if not fresh:
                receipt.known += 1
                if (self.queue.jobs[key].state == "done"
                        and self.store.get(spec) is None):
                    self.queue._requeue_lost(key)
                continue
            if self.store.get(spec) is not None:
                self.queue.done(key, "scheduler", store="hit")
                receipt.deduped += 1
            else:
                receipt.submitted += 1
        return receipt

    def _fresh_sweep_name(self) -> str:
        """Generate a sweep name unique across processes and restarts."""
        self._sweep_counter += 1
        return (f"sweep-{os.getpid()}-{int(time.time() * 1000):x}"
                f"-{self._sweep_counter}")

    # ------------------------------------------------------------------
    def drain(self, *, workers: int = 0) -> Dict[str, int]:
        """Run attempts until every job is terminal; returns final counts.

        This is :func:`repro.runner.run_jobs` with nothing new to submit
        (``workers`` as there): a raised or crashed attempt goes straight
        back to the queue — requeued, or failed once ``max_attempts``
        leases are burned — instead of waiting out its lease.  Any number
        of processes may drain one directory at once; a drain returns
        when nothing is pending or leased *anywhere*.
        """
        # retries=max_attempts: only the journal's own budget ever binds
        run_jobs((), fleet=self, workers=workers, retries=self.max_attempts)
        self.queue.sync()
        return self.queue.counts()

    #: crash recovery *is* a drain: finished points are store hits and
    #: half-finished ones resume from their checkpoints inside the attempt
    resume = drain

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """:meth:`JobQueue.status`, fresh, plus ``root`` and ``drained``."""
        self.queue.sync()
        return {"root": str(self.root), "drained": self.queue.drained(),
                **self.queue.status()}

    def results(self, sweep: Union[str, SubmitReceipt]) -> List[Dict[str, Any]]:
        """Per-job outcomes for *sweep*, in submission order.

        *sweep* is a sweep name or a :class:`SubmitReceipt` — pass the
        receipt when some of your points may have deduped against an
        *earlier* sweep (they stay attached to the sweep that first
        submitted them, so the name alone would miss them).  Each entry
        carries the job's terminal ``state`` plus either the store
        ``payload`` (done) or the recorded ``error`` (failed / still in
        flight).  A ``done`` job whose entry no longer reads back has
        ``payload`` ``None`` and an ``error`` saying so; resubmitting
        it requeues it.
        """
        self.queue.sync()
        keys = (sweep.keys if isinstance(sweep, SubmitReceipt)
                else self.queue.sweep_keys(sweep))
        out: List[Dict[str, Any]] = []
        for key in keys:
            job = self.queue.jobs[key]
            entry, error = None, job.error
            if job.state == "done":
                entry = self.store.get(JobSpec(job.kind, job.params))
                if entry is None:
                    error = "done, but its store entry is missing or unreadable"
            out.append({
                "key": key,
                "kind": job.kind,
                "params": job.params,
                "state": job.state,
                "payload": entry["payload"] if entry is not None else None,
                "error": error,
            })
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Fleet root={self.root} {self.queue.counts()}>"


class Leases:
    """Journal backend of :func:`repro.runner.run_jobs`' scheduler loop.

    One draining process's view of the fleet: it leases under a
    ``host:pid`` worker id and keeps the leases of running attempts alive
    from one daemon thread that renews every held key each ``ttl/3``
    seconds.  The thread shares this process's :class:`JobQueue`, hence
    the lock around every queue call.  A refused renewal (the lease
    expired and someone re-leased the key) just drops the key: the
    attempt finishes as a zombie whose eventual ``done`` is still a
    valid, idempotent acknowledgement.
    """

    def __init__(self, fleet: Fleet, receipt: SubmitReceipt):
        self.fleet = fleet
        self.queue = fleet.queue
        self.worker = f"{socket.gethostname()}:{os.getpid()}"
        runnable = {key for key, job in self.queue.jobs.items()
                    if job.state in ("pending", "leased")}
        self.total = len(runnable.union(receipt.keys))
        self._held: set = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._renew_loop, name="repro-fleet-renew", daemon=True)
        self._thread.start()

    def take(self) -> Optional[Ticket]:
        """Requeue expired leases, then lease the next pending job."""
        with self._lock:
            self.queue.requeue_expired()
            job = self.queue.lease(self.worker, ttl=self.fleet.ttl)
            if job is None:
                return None
            self._held.add(job.key)
        return Ticket(job.key, JobSpec(job.kind, job.params), job.attempts)

    def done(self, ticket: Ticket, store: str) -> None:
        """Journal ``done`` (*store* is ``"fresh"`` or ``"hit"``)."""
        with self._lock:
            self._held.discard(ticket.token)
            self.queue.done(ticket.token, self.worker, store=store)

    def fail(self, ticket: Ticket, error: str, final: bool) -> bool:
        """Journal a failed attempt; true when the job went back to pending."""
        with self._lock:
            self._held.discard(ticket.token)
            return self.queue.fail(ticket.token, self.worker, error,
                                   final=final) == "pending"

    def drained(self) -> bool:
        """Is every job terminal, counting other processes' progress?"""
        with self._lock:
            self.queue.sync()
            return self.queue.drained()

    def close(self) -> None:
        """Stop renewing."""
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _renew_loop(self) -> None:
        interval = max(0.05, self.fleet.ttl / 3.0)
        while not self._stop.wait(interval):
            with self._lock:
                for key in sorted(self._held):
                    try:
                        held = self.queue.renew(key, self.worker,
                                                ttl=self.fleet.ttl)
                    except OSError:  # pragma: no cover - disk trouble
                        return
                    if not held:
                        self._held.discard(key)


def resolve_fleet(fleet=None) -> Optional[Fleet]:
    """Resolve a ``fleet=`` argument the way ``cache=`` resolves.

    ``None`` consults ``$REPRO_FLEET`` (unset/empty → no fleet),
    ``False`` forces fleet-less execution, a :class:`Fleet` passes
    through, and a string/path opens a fleet rooted there.
    """
    if fleet is False:
        return None
    if isinstance(fleet, Fleet):
        return fleet
    if fleet is None:
        env = os.environ.get("REPRO_FLEET", "").strip()
        if not env:
            return None
        fleet = env
    return Fleet(fleet)
