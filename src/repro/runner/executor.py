"""Process fan-out executor with caching, timeouts and bounded retry.

Jobs are deterministic functions of their :class:`JobSpec`, so execution
strategy is purely an operational choice:

* ``workers=0`` — serial, in-process.  The debugging fallback: plain
  stack traces, no forking, ``pdb`` works.  Timeouts cannot be enforced
  without process isolation and are ignored (a warning-level note is in
  the docs, not a runtime surprise).
* ``workers=N`` — up to N concurrent **one-shot worker processes**, one
  per job attempt.  One process per job (rather than a long-lived pool)
  is what buys crash isolation: a segfaulting or diverging simulation
  kills only its own process, the scheduler notices the dead/overdue
  worker, retries up to ``retries`` times, and finally marks the job
  failed — the rest of the sweep is unaffected.

Results are returned in spec order regardless of completion order, which
is what makes ``workers=N`` output row-for-row identical to ``workers=0``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..obs.bus import EventBus, bus_scope, heartbeat_loop, resolve_bus_path
from ..obs.manifest import build_manifest, write_manifest
from ..obs.runtime import observe_job
from ..obs.trace import write_trace
from ..snapshot.runtime import checkpoint_scope, resolve_checkpoint_interval
from .cache import ResultCache, resolve_cache
from .registry import resolve_job
from .spec import JobSpec
from .telemetry import RunnerStats, resolve_progress

__all__ = ["JobResult", "record_observation", "run_jobs", "resolve_workers"]

#: grace period for a worker that already sent its result to exit
_JOIN_GRACE = 5.0


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


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` honours ``$REPRO_WORKERS``; absent both, run serially."""
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        workers = int(env) if env else 0
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _events_of(payload: Any) -> int:
    """Simulator events reported by a job payload, if it carries any."""
    if isinstance(payload, dict):
        v = payload.get("events_processed")
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return int(v)
    return 0


def _child_main(kind: str, params: dict, conn, ckpt_path=None, ckpt_interval=None,
                bus_path=None, job_key=None) -> None:
    """Worker-process entry point: run one job, ship one message back.

    The job runs inside an :func:`observe_job` context so phase timings,
    peak RSS and (when ``REPRO_OBS``/``REPRO_TRACE`` are set) metrics and
    trace records ride back to the parent alongside the payload; the
    payload itself stays untouched, so cached results are byte-identical
    with observability on or off.

    When checkpointing is enabled a :func:`checkpoint_scope` wraps the
    job as well: a checkpoint-aware job resumes from *ckpt_path* if a
    previous attempt left one (crash/timeout recovery) and saves
    periodically.  On success the checkpoint file is deleted and its
    lineage summary rides back in the observation under ``checkpoint``.

    When the telemetry bus is enabled (*bus_path*), the worker opens its
    own :class:`~repro.obs.bus.EventBus` scoped to *job_key* so phase
    transitions, checkpoint resumes and a wall-clock heartbeat thread
    publish live progress straight into the run's ``events.jsonl`` —
    the parent never proxies live telemetry, so a hung parent cannot
    stall a worker.
    """
    try:
        with bus_scope(bus_path, job=job_key) as bus, \
                observe_job() as obs, \
                heartbeat_loop(bus), \
                checkpoint_scope(ckpt_path, ckpt_interval) as slot:
            payload = resolve_job(kind)(dict(params))
        obs_meta = obs.finish()
        if slot is not None:
            lineage = slot.summary()
            if lineage is not None:
                obs_meta["checkpoint"] = lineage
            slot.discard()
        conn.send(("ok", payload, obs_meta))
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


class _Running:
    """Bookkeeping for one in-flight worker process."""

    __slots__ = ("index", "proc", "conn", "deadline", "attempt", "t0")

    def __init__(self, index, proc, conn, deadline, attempt, t0):
        self.index = index
        self.proc = proc
        self.conn = conn
        self.deadline = deadline
        self.attempt = attempt
        self.t0 = t0


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
    """
    specs = list(specs)
    n_workers = resolve_workers(workers)
    store: Optional[ResultCache] = resolve_cache(cache)
    ckpt_interval = resolve_checkpoint_interval(checkpoint) if store is not None else None
    hook = resolve_progress(progress)
    stats = RunnerStats(total=len(specs))
    results: List[Optional[JobResult]] = [None] * len(specs)
    bus_path = resolve_bus_path(store, bus)
    live: Optional[EventBus] = EventBus(bus_path) if bus_path is not None else None

    def settle(index: int, result: JobResult) -> None:
        results[index] = result
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

    def announce(index: int, attempt: int) -> None:
        if live is None:
            return
        spec = specs[index]
        live.emit(
            "job_started", key=spec.cache_key, kind=spec.kind,
            scheme=spec.params.get("scheme"), seed=spec.params.get("seed"),
            attempt=attempt,
        )

    if live is not None:
        live.emit("run_started", total=len(specs))

    # ---- cache pass: satisfy what we can without simulating ------------
    misses: List[int] = []
    for i, spec in enumerate(specs):
        entry = store.get(spec) if store is not None else None
        if entry is not None:
            settle(i, JobResult(
                spec, "ok", value=entry["payload"], cached=True,
                attempts=0, meta=entry.get("meta") or {},
            ))
        else:
            misses.append(i)

    if not misses:
        if live is not None:
            live.emit("run_finished", stats=stats.snapshot())
            live.close()
        return [r for r in results if r is not None]

    def record_success(
        index: int, payload: Any, attempt: int, wall: float, obs_meta=None
    ) -> None:
        spec = specs[index]
        meta = {"events": _events_of(payload), "wall_time": wall, "attempts": attempt}
        stats.wall_time += wall
        if obs_meta:
            rss = obs_meta.get("peak_rss_kb")
            if isinstance(rss, int):
                stats.peak_rss_kb = max(stats.peak_rss_kb, rss)
        if store is not None:
            store.put(spec, payload, meta=meta)
            record_observation(store, spec, meta, payload, obs_meta)
        settle(index, JobResult(
            spec, "ok", value=payload, attempts=attempt, wall_time=wall, meta=meta,
        ))

    def ckpt_path_of(spec: JobSpec):
        if ckpt_interval is None or store is None:
            return None
        return store.checkpoint_path_for(spec)

    try:
        if n_workers == 0:
            _run_serial(
                specs, misses, retries, stats, record_success, settle,
                ckpt_path_of, ckpt_interval, announce, live, bus_path,
            )
        else:
            _run_parallel(
                specs, misses, n_workers, timeout, retries, stats,
                record_success, settle, ckpt_path_of, ckpt_interval,
                announce, live, bus_path,
            )
        if live is not None:
            live.emit("run_finished", stats=stats.snapshot())
    finally:
        if live is not None:
            live.close()
    return [r for r in results if r is not None]


def record_observation(store, spec, meta, payload, obs_meta) -> None:
    """Persist the job's run manifest (and trace) next to its cache entry.

    Manifest writes are best-effort: a full disk or permission hiccup on
    the forensic record must not fail a job whose payload already landed.
    Shared with :mod:`repro.fleet.worker`, which stores results through
    the same content-addressed layout.
    """
    obs_meta = dict(obs_meta) if obs_meta else {}
    trace_records = obs_meta.pop("trace_records", None)
    trace_file = None
    try:
        if trace_records is not None:
            trace_path = store.trace_path_for(spec)
            write_trace(trace_path, trace_records)
            trace_file = trace_path.name
        manifest = build_manifest(
            key=spec.cache_key,
            kind=spec.kind,
            params=spec.params,
            wall_time=meta["wall_time"],
            events=meta["events"],
            attempts=meta["attempts"],
            payload=payload,
            obs_meta=obs_meta,
            trace_file=trace_file,
        )
        write_manifest(store.manifest_path_for(spec), manifest)
    except OSError:  # pragma: no cover - disk trouble
        pass


# ----------------------------------------------------------------------
# serial fallback
# ----------------------------------------------------------------------
def _run_serial(
    specs, misses, retries, stats, record_success, settle,
    ckpt_path_of, ckpt_interval, announce, live, bus_path,
) -> None:
    for index in misses:
        spec = specs[index]
        error = None
        for attempt in range(1, retries + 2):
            if attempt > 1:
                stats.retries += 1
                if live is not None:
                    live.emit("job_retried", key=spec.cache_key,
                              attempt=attempt - 1)
            announce(index, attempt)
            t0 = time.monotonic()
            try:
                with bus_scope(bus_path, job=spec.cache_key) as job_bus, \
                        observe_job() as obs, \
                        heartbeat_loop(job_bus), \
                        checkpoint_scope(
                            ckpt_path_of(spec), ckpt_interval
                        ) as slot:
                    payload = resolve_job(spec.kind)(dict(spec.params))
            except Exception as exc:  # noqa: BLE001 - keep the sweep alive
                error = f"{type(exc).__name__}: {exc}"
                continue
            obs_meta = obs.finish()
            if slot is not None:
                lineage = slot.summary()
                if lineage is not None:
                    obs_meta["checkpoint"] = lineage
                slot.discard()
            record_success(
                index, payload, attempt, time.monotonic() - t0, obs_meta,
            )
            break
        else:
            settle(index, JobResult(
                spec, "failed", error=error, attempts=retries + 1,
            ))


# ----------------------------------------------------------------------
# process fan-out
# ----------------------------------------------------------------------
def _run_parallel(
    specs, misses, n_workers, timeout, retries, stats, record_success, settle,
    ckpt_path_of, ckpt_interval, announce, live, bus_path,
) -> None:
    ctx = _mp_context()
    queue: List[tuple] = [(i, 1) for i in misses]  # (spec index, attempt no.)
    queue.reverse()  # pop() from the tail keeps submission order
    running: List[_Running] = []

    def launch(index: int, attempt: int) -> None:
        spec = specs[index]
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_main,
            args=(
                spec.kind, spec.params, child_conn,
                ckpt_path_of(spec), ckpt_interval,
                bus_path, spec.cache_key,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps only the read end
        announce(index, attempt)
        now = time.monotonic()
        deadline = now + timeout if timeout is not None else None
        running.append(_Running(index, proc, parent_conn, deadline, attempt, now))

    def reap(slot: _Running) -> None:
        slot.conn.close()
        if slot.proc.is_alive():
            slot.proc.terminate()
            slot.proc.join(_JOIN_GRACE)
            if slot.proc.is_alive():  # pragma: no cover - stubborn child
                slot.proc.kill()
                slot.proc.join(_JOIN_GRACE)
        else:
            slot.proc.join()

    def retry_or_fail(slot: _Running, error: str) -> None:
        if slot.attempt <= retries:
            stats.retries += 1
            if live is not None:
                live.emit("job_retried", key=specs[slot.index].cache_key,
                          attempt=slot.attempt)
            queue.append((slot.index, slot.attempt + 1))
        else:
            settle(slot.index, JobResult(
                specs[slot.index], "failed", error=error, attempts=slot.attempt,
            ))

    try:
        while queue or running:
            while queue and len(running) < n_workers:
                index, attempt = queue.pop()
                launch(index, attempt)

            now = time.monotonic()
            still_running: List[_Running] = []
            progressed = False
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
                if message is not None:
                    status, body, obs_meta = message
                    reap(slot)
                    wall = now - slot.t0
                    if status == "ok":
                        record_success(slot.index, body, slot.attempt, wall, obs_meta)
                    else:
                        retry_or_fail(slot, body)
                    progressed = True
                elif not slot.proc.is_alive():
                    reap(slot)
                    retry_or_fail(
                        slot,
                        f"worker crashed without result "
                        f"(exit code {slot.proc.exitcode})",
                    )
                    progressed = True
                elif slot.deadline is not None and now > slot.deadline:
                    reap(slot)
                    retry_or_fail(slot, f"timed out after {timeout}s")
                    progressed = True
                else:
                    still_running.append(slot)
            running = still_running
            if not progressed and running:
                # Sleep until a worker writes its result or exits, or the
                # nearest per-attempt deadline passes — whichever is first.
                deadlines = [s.deadline for s in running if s.deadline is not None]
                multiprocessing.connection.wait(
                    [s.conn for s in running] + [s.proc.sentinel for s in running],
                    max(0.0, min(deadlines) - now) if deadlines else None,
                )
    finally:
        for slot in running:  # pragma: no cover - only on interrupt
            reap(slot)
