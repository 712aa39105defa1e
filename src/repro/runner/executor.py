"""The one execution path: one attempt, one driver, two queue backends.

Jobs are deterministic functions of their :class:`JobSpec`, so how they
are executed is purely an operational choice, made in exactly one place:

* :func:`run_attempt` runs **one attempt** of one job under the four
  per-attempt scopes (telemetry bus, observation, heartbeat, checkpoint).
* :func:`commit` makes a successful attempt durable **store first**:
  the trace (with ``--trace``), then the one cache entry carrying the
  payload and the attempt's observation, and only then the queue
  acknowledgement (a crash in the gap costs one redundant lease that
  finds the entry, never a recompute).
* One scheduler loop pulls attempt tickets from a queue: ``workers=0``
  runs them in-process (the debugging path — plain stack traces, ``pdb``
  works, timeouts cannot be enforced), ``workers=N`` on up to N
  **worker processes** that live for the call, started on the first
  store miss and handed their next ticket before the finished one is
  committed.  The worker is the isolation unit and is **replaced on
  failure**: a raising, segfaulting, diverging or overdue attempt takes
  only its own worker down; the loop hands the failure back to the queue,
  the next attempt runs on a fresh process and the rest of the sweep is
  unaffected.

A queue backend offers ``take()`` (the next :class:`Ticket`, or ``None``
when nothing is runnable right now), ``done(ticket, store)``,
``fail(ticket, error, final)`` (true when requeued; *final* says the
call's ``retries`` are spent), ``drained()``, ``close()`` and ``total``.  There are
two: the in-memory list below and the journal-backed leases of
:mod:`repro.fleet` (``fleet=`` / ``$REPRO_FLEET``: durable, resumable,
shareable between processes).

Results are returned in spec order regardless of completion order, which
is what makes every strategy's output row-for-row identical.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..obs.bus import EventBus, bus_scope, heartbeat_loop, resolve_bus_path
from ..obs.runtime import observe_job
from ..obs.trace import write_trace
from ..snapshot.runtime import checkpoint_scope, resolve_checkpoint_interval
from .cache import ResultCache, resolve_cache
from .registry import resolve_job
from .spec import JobSpec
from .telemetry import RunnerStats, resolve_progress

__all__ = ["JobResult", "Ticket", "commit", "resolve_workers", "run_attempt",
           "run_jobs"]

#: grace period for a worker that already sent its result to exit
_JOIN_GRACE = 5.0

#: observation fields an attempt's cache entry carries in ``meta``
_OBSERVED = ("phases", "peak_rss_kb", "metrics", "profile", "checkpoint")

#: sleep between polls of a queue whose remaining jobs are all leased to
#: other processes (only the journal backend can be in that state)
_IDLE_POLL = 0.05


@dataclass
class JobResult:
    """Outcome of one job: payload on success, error text on failure."""

    spec: JobSpec
    status: str  # "ok" | "failed"
    value: Any = None
    error: Optional[str] = None
    cached: bool = False
    attempts: int = 0
    wall_time: float = 0.0
    meta: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the job produced a payload (fresh run or cache hit)."""
        return self.status == "ok"


class Ticket(NamedTuple):
    """One attempt handed out by a queue backend.

    ``token`` is the backend's handle for the job (spec index in memory,
    content key in the journal); ``attempt`` counts from 1.
    """

    token: Hashable
    spec: JobSpec
    attempt: int


class _MemoryQueue:
    """In-memory backend: every spec once, in order; a failed attempt
    with budget left is retried next."""

    def __init__(self, specs: Sequence[JobSpec]):
        self.total = len(specs)
        self._pending = [Ticket(i, spec, 1) for i, spec in enumerate(specs)]
        self._pending.reverse()  # pop() from the tail keeps submission order

    def take(self) -> Optional[Ticket]:
        return self._pending.pop() if self._pending else None

    def done(self, ticket: Ticket, store: str) -> None:
        pass

    def fail(self, ticket: Ticket, error: str, final: bool) -> bool:
        if final:
            return False
        self._pending.append(Ticket(ticket.token, ticket.spec, ticket.attempt + 1))
        return True

    def drained(self) -> bool:
        return not self._pending

    def close(self) -> None:
        pass


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` honours ``$REPRO_WORKERS``; absent both, run serially.
    A value that is not an integer >= 0 raises ``ValueError`` naming the
    knob it came from."""
    name, raw = "workers", workers
    if workers is None:
        name, raw = "REPRO_WORKERS", os.environ.get("REPRO_WORKERS", "").strip() or 0
    try:
        workers = int(raw)
    except (TypeError, ValueError):
        workers = -1
    if workers < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {raw!r}")
    return workers


def _events_of(payload: Any) -> int:
    """Simulator events reported by a job payload, if it carries any."""
    if isinstance(payload, dict):
        v = payload.get("events_processed")
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return int(v)
    return 0


def run_attempt(spec: JobSpec, ckpt_path=None, ckpt_interval=None,
                bus_path=None) -> Tuple[Any, Dict]:
    """Run one attempt of *spec*; returns ``(payload, obs_meta)`` or raises.

    The job runs inside an :func:`observe_job` context so phase timings,
    peak RSS and (when ``REPRO_OBS``/``REPRO_TRACE`` are set) metrics and
    trace records come back alongside the payload; the payload itself
    stays untouched, so cached results are byte-identical with
    observability on or off.

    When checkpointing is enabled a :func:`checkpoint_scope` wraps the
    job as well: a checkpoint-aware job resumes from *ckpt_path* if a
    previous attempt left one (crash/timeout/kill recovery) and saves
    periodically.  On success the checkpoint file is deleted and its
    lineage summary is returned in the observation under ``checkpoint``.

    When the telemetry bus is enabled (*bus_path*), the attempt opens its
    own :class:`~repro.obs.bus.EventBus` scoped to the job's key so phase
    transitions, checkpoint resumes and a wall-clock heartbeat thread
    publish live progress straight into the run's ``events.jsonl`` —
    the scheduler never proxies live telemetry, so a hung scheduler
    cannot stall a worker.
    """
    with bus_scope(bus_path, job=spec.cache_key) as bus, \
            observe_job() as obs, \
            heartbeat_loop(bus), \
            checkpoint_scope(ckpt_path, ckpt_interval) as slot:
        payload = resolve_job(spec.kind)(dict(spec.params))
    obs_meta = obs.finish()
    if slot is not None:
        lineage = slot.summary()
        if lineage is not None:
            obs_meta["checkpoint"] = lineage
        slot.discard()
    return payload, obs_meta


def commit(store: Optional[ResultCache], queue, ticket: Ticket, payload: Any,
           meta: Dict, trace_records: Optional[List[dict]] = None) -> None:
    """Make a successful attempt durable, then acknowledge it.

    Order matters: the entry lands in the store (atomically) before the
    queue hears ``done``, so a process killed in between leaves a job
    that is still runnable and whose next lease is a store hit.  The
    entry is the job's one record: *meta* carries what the attempt cost
    and observed.  The trace sibling is written first and is
    best-effort: a full disk or permission hiccup on the forensic record
    must not fail a job whose payload is in hand.
    """
    spec = ticket.spec
    if store is not None:
        if trace_records is not None:
            try:
                write_trace(store.trace_path_for(spec), trace_records)
            except OSError:  # pragma: no cover - disk trouble
                pass
        store.put(spec, payload, meta=meta)
    queue.done(ticket, "fresh")


def _worker_main(conn, inherited) -> None:
    """Worker-process entry point: serve attempts until the driver hangs up.

    Loops ``recv (spec, ckpt_path, ckpt_interval, bus_path) ->
    run_attempt -> send``.  A failed attempt is reported and ends the
    worker (the driver starts a fresh one); EOF on the pipe — the driver
    closed its end, or died — ends it too, which is why a forked worker
    first closes the driver-side pipe ends it *inherited* (its own and
    its older siblings'): held open here, they would keep those workers
    waiting on a dead driver.
    """
    for other in inherited:
        other.close()
    try:
        while True:
            try:
                job = conn.recv()
            except EOFError:
                break
            conn.send(("ok",) + run_attempt(*job))
    except BaseException as exc:  # noqa: BLE001 - isolate *any* job failure
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}", None))
        except Exception:
            pass
    finally:
        conn.close()


def _mp_context():
    """Fork where available (fast, inherits runtime registrations)."""
    method = os.environ.get("REPRO_MP_START", "").strip() or None
    if method is None and "fork" in multiprocessing.get_all_start_methods():
        method = "fork"
    return multiprocessing.get_context(method)


@dataclass
class _Running:
    """Bookkeeping for one in-flight attempt and the worker it runs on."""

    ticket: Ticket
    proc: Any
    conn: Any
    deadline: Optional[float]
    t0: float


def run_jobs(
    specs: Sequence[JobSpec],
    *,
    workers: Optional[int] = None,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress=None,
    checkpoint: Optional[float] = None,
    bus=None,
    fleet=None,
) -> List[JobResult]:
    """Execute *specs*, returning one :class:`JobResult` per spec, in order.

    Parameters
    ----------
    workers:
        Concurrent worker processes; ``0`` runs serially in-process and
        ``None`` defers to ``$REPRO_WORKERS`` (default serial).
    cache:
        See :func:`repro.runner.cache.resolve_cache`; ``None`` enables the
        default on-disk cache, ``False`` disables caching.
    timeout:
        Per-attempt wall-clock limit in seconds; an overdue worker is
        killed and the attempt counts as a failure.  Requires
        ``workers > 0`` (process isolation) to be enforceable.
    retries:
        Extra attempts after a raised exception, crash, or timeout.
    progress:
        Callable invoked with the live :class:`RunnerStats` after each
        job settles; ``None`` defers to ``$REPRO_PROGRESS``.
    checkpoint:
        Simulated seconds between periodic checkpoints of checkpoint-aware
        jobs (see :mod:`repro.snapshot`); ``None`` defers to
        ``$REPRO_CHECKPOINT`` (default off).  A killed, crashed or
        timed-out attempt resumes from the last checkpoint instead of
        starting over — bit-identically, so specs and cache keys are
        unaffected.  Requires an enabled cache (the checkpoint lives next
        to the job's cache entry); silently off otherwise.
    bus:
        Live telemetry bus (see :mod:`repro.obs.bus`): ``None`` defers to
        ``$REPRO_BUS`` (default off), ``False`` disables, a str/Path
        names the JSONL file explicitly.  Enabled, the scheduler and
        every worker publish job lifecycle/heartbeat events there —
        purely observational, results are bit-identical either way.
    fleet:
        Journal the jobs in a :mod:`repro.fleet` directory instead of an
        in-memory list: a :class:`~repro.fleet.scheduler.Fleet`, a
        directory path, ``None`` to consult ``$REPRO_FLEET`` (unset →
        in-memory), ``False`` to force in-memory.  The specs are
        submitted (deduping against the fleet's store) and the same loop
        drains the fleet's queue, so a killed call is resumed by calling
        again with no finished point recomputed.  A fleet brings its own
        store, bus and checkpoint default in place of ``cache``/``bus``;
        ``retries`` counts against the job's journaled attempts (a
        killed run's lease is one), under the fleet's ``max_attempts``.
    """
    # local: fleet imports us
    from ..fleet.scheduler import Leases, SubmitReceipt, resolve_fleet

    specs = list(specs)
    n_workers = resolve_workers(workers)
    fl = resolve_fleet(fleet)
    if fl is None:
        store: Optional[ResultCache] = resolve_cache(cache)
        bus_path = resolve_bus_path(store, bus)
    else:
        store, bus_path = fl.store, fl.bus_path
        if checkpoint is None:
            checkpoint = fl.checkpoint
    ckpt_interval = resolve_checkpoint_interval(checkpoint) if store is not None else None
    hook = resolve_progress(progress)
    live: Optional[EventBus] = EventBus(bus_path) if bus_path is not None else None
    if fl is None:
        queue = _MemoryQueue(specs)
    else:
        receipt = fl.submit(specs)
        queue = Leases(fl, receipt)
    stats = RunnerStats(total=queue.total)
    settled: Dict[Hashable, JobResult] = {}

    def settle(token: Hashable, result: JobResult) -> None:
        settled[token] = result
        if result.cached:
            stats.cached += 1
        elif result.ok:
            stats.done += 1
        else:
            stats.failed += 1
        stats.events += 0 if result.cached else _events_of(result.value)
        if live is not None:
            if result.cached:
                live.emit("job_cached", key=result.spec.cache_key)
            elif result.ok:
                live.emit(
                    "job_finished", key=result.spec.cache_key,
                    wall_time=result.wall_time,
                    events=_events_of(result.value),
                    attempts=result.attempts,
                )
            else:
                live.emit(
                    "job_failed", key=result.spec.cache_key,
                    error=(result.error or "")[:500],
                    attempts=result.attempts,
                )
        if hook is not None:
            hook(stats)

    try:
        if live is not None:
            live.emit("run_started", total=stats.total)
        try:
            _drive(queue, store, n_workers, timeout, retries, ckpt_interval,
                   bus_path, live, stats, settle)
        finally:
            queue.close()
        if fl is None:
            results = [settled[i] for i in range(len(specs))]
        else:
            # jobs this call never held finished earlier (submit-time
            # dedupe, a previous run) or in another draining process: read
            # those back, and only those.  A done job whose entry is gone
            # by now is a failure, never an ok without a payload.
            spec_of = {spec.cache_key: spec for spec in specs}
            unsettled = SubmitReceipt(receipt.sweep, [
                key for key in spec_of if key not in settled])
            for entry in fl.results(unsettled):
                spec = spec_of[entry["key"]]
                if entry["state"] == "done" and entry["error"] is None:
                    known = JobResult(spec, "ok", value=entry["payload"], cached=True)
                else:
                    known = JobResult(spec, "failed", error=entry["error"])
                settle(entry["key"], known)
            results = [settled[spec.cache_key] for spec in specs]
        if live is not None:
            live.emit("run_finished", stats=stats.snapshot())
    finally:
        if live is not None:
            live.close()
    return results


def _drive(queue, store, n_workers, timeout, retries, ckpt_interval, bus_path,
           live, stats, settle: Callable[[Hashable, JobResult], None]) -> None:
    """The scheduler loop: take tickets until the queue is drained."""
    ctx = None
    running: List[_Running] = []
    idle: List[Tuple[Any, Any]] = []  # (proc, conn) of workers awaiting a ticket
    landed: List[Tuple[Ticket, Any, Any, float]] = []  # replies not yet committed

    def ckpt_path_of(spec: JobSpec):
        return store.checkpoint_path_for(spec) if ckpt_interval is not None else None

    def succeed(ticket: Ticket, payload: Any, obs_meta, wall: float) -> None:
        meta = {"events": _events_of(payload), "wall_time": wall,
                "attempts": ticket.attempt}
        obs_meta = obs_meta or {}
        meta.update((f, obs_meta[f]) for f in _OBSERVED
                    if obs_meta.get(f) is not None)
        stats.wall_time += wall
        rss = meta.get("peak_rss_kb")
        if isinstance(rss, int):
            stats.peak_rss_kb = max(stats.peak_rss_kb, rss)
        commit(store, queue, ticket, payload, meta,
               obs_meta.get("trace_records"))
        settle(ticket.token, JobResult(
            ticket.spec, "ok", value=payload, attempts=ticket.attempt,
            wall_time=wall, meta=meta,
        ))

    def fail(ticket: Ticket, error: str) -> None:
        if queue.fail(ticket, error, ticket.attempt > retries):
            stats.retries += 1
            if live is not None:
                live.emit("job_retried", key=ticket.spec.cache_key,
                          attempt=ticket.attempt)
        else:
            settle(ticket.token, JobResult(
                ticket.spec, "failed", error=error, attempts=ticket.attempt,
            ))

    def reap(proc, conn) -> None:
        conn.close()
        if proc.is_alive():
            proc.terminate()
            proc.join(_JOIN_GRACE)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join(_JOIN_GRACE)
        else:
            proc.join()

    try:
        while True:
            while len(running) < max(n_workers, 1):
                ticket = queue.take()
                if ticket is None:
                    break
                spec = ticket.spec
                entry = store.get(spec) if store is not None else None
                if entry is not None:
                    queue.done(ticket, "hit")
                    settle(ticket.token, JobResult(
                        spec, "ok", value=entry["payload"], cached=True,
                        meta=entry.get("meta") or {},
                    ))
                    continue
                if live is not None:
                    live.emit(
                        "job_started", key=spec.cache_key, kind=spec.kind,
                        scheme=spec.params.get("scheme"),
                        seed=spec.params.get("seed"), attempt=ticket.attempt,
                    )
                t0 = time.monotonic()
                if n_workers == 0:
                    try:
                        payload, obs_meta = run_attempt(
                            spec, ckpt_path_of(spec), ckpt_interval, bus_path)
                    except Exception as exc:  # noqa: BLE001 - keep the sweep alive
                        fail(ticket, f"{type(exc).__name__}: {exc}")
                    else:
                        succeed(ticket, payload, obs_meta, time.monotonic() - t0)
                    continue
                if idle:
                    proc, conn = idle.pop()
                else:
                    ctx = ctx or _mp_context()
                    conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(
                        target=_worker_main, daemon=True,
                        args=(child_conn, [conn] + [s.conn for s in running]))
                    proc.start()
                    child_conn.close()  # so a dead worker reads as EOF
                try:
                    conn.send((spec, ckpt_path_of(spec), ckpt_interval, bus_path))
                except OSError:  # worker died idle: reported as a crash below
                    pass
                running.append(_Running(
                    ticket, proc, conn,
                    t0 + timeout if timeout is not None else None, t0,
                ))

            # the freed workers are on their next tickets: now commit
            for done in landed:
                succeed(*done)
            landed.clear()
            if not running:
                if queue.drained():
                    return
                time.sleep(_IDLE_POLL)  # leases held elsewhere: wait them out
                continue

            now = time.monotonic()
            still_running: List[_Running] = []
            for slot in running:
                message = None
                if slot.conn.poll():
                    try:
                        message = slot.conn.recv()
                    except (EOFError, OSError):
                        # Pipe closed with nothing sent: the worker is on
                        # its way out.  Let it finish, so the crash branch
                        # below reports its real exit code.
                        slot.proc.join(_JOIN_GRACE)
                if message is not None and message[0] == "ok":
                    idle.append((slot.proc, slot.conn))
                    landed.append((slot.ticket, *message[1:], now - slot.t0))
                elif message is not None:
                    reap(slot.proc, slot.conn)
                    fail(slot.ticket, message[1])
                elif not slot.proc.is_alive():
                    reap(slot.proc, slot.conn)
                    fail(
                        slot.ticket,
                        f"worker crashed without result "
                        f"(exit code {slot.proc.exitcode})",
                    )
                elif slot.deadline is not None and now > slot.deadline:
                    reap(slot.proc, slot.conn)
                    fail(slot.ticket, f"timed out after {timeout}s")
                else:
                    still_running.append(slot)
            if len(still_running) == len(running):
                # Sleep until a worker writes its result or exits, or the
                # nearest per-attempt deadline passes — whichever is first.
                deadlines = [s.deadline for s in running if s.deadline is not None]
                multiprocessing.connection.wait(
                    [s.conn for s in running] + [s.proc.sentinel for s in running],
                    max(0.0, min(deadlines) - now) if deadlines else None,
                )
            running = still_running
    finally:
        for proc, conn in idle + [(s.proc, s.conn) for s in running]:
            reap(proc, conn)
