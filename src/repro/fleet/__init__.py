"""Durable, resumable sweeps: the journal-backed queue of the one executor.

:func:`repro.runner.run_jobs` drives a finite job list held in memory
and forgets it on return; given ``fleet=`` (or ``$REPRO_FLEET``) the same
loop pulls from a crash-safe on-disk queue instead, which any number of
processes — started, killed and restarted at will — converge against
with zero recomputation of finished points.  The pieces:

* :class:`~repro.fleet.journal.Journal` — append-only JSONL op log with
  ``flock``-serialized writers and torn-tail-tolerant replay; the fleet's
  only record of queue state (the telemetry bus carries no copy).
* :class:`~repro.fleet.queue.JobQueue` — the pending/leased/done/failed
  state machine replayed from the journal: priority-ordered leases with
  expiry, double-lease prevention, dead-holder requeue, attempt budget;
  :meth:`~repro.fleet.queue.JobQueue.status` is the one summary fold that
  ``status``, its CLI and ``python -m repro.obs report`` all read.
* :class:`~repro.fleet.scheduler.Fleet` — the user-facing facade:
  ``submit`` (with store-hit dedupe), ``drain``/``resume``, ``status``,
  ``results``; ``python -m repro.fleet`` wraps it in a CLI.

Everything else is the runner's: attempts run through
:func:`repro.runner.executor.run_attempt`, results live in a plain
:class:`repro.runner.cache.ResultCache` (same layout and content keys as
every runner cache, so identical points dedupe *across* sweeps and across
fleet directories pointed at one store), and the draining process is
what holds and renews the leases of its running attempts.

Determinism contract: jobs are deterministic functions of their spec, so
at-least-once execution (a lease that expires mid-run may be re-leased)
still yields exactly-once *results* — the store is keyed by content, a
re-leased job first checks the store, and a resumed run is bit-identical
to a straight-through one (the :mod:`repro.snapshot` guarantee).
"""

from .journal import Journal
from .queue import JOB_STATES, JobQueue, JobState
from .scheduler import Fleet, SubmitReceipt, resolve_fleet

__all__ = [
    "Fleet",
    "JOB_STATES",
    "JobQueue",
    "JobState",
    "Journal",
    "SubmitReceipt",
    "resolve_fleet",
]
