"""Live telemetry bus: job lifecycle + heartbeat events, streamed to JSONL.

The job record (a fresh job's cache entry) and its trace become
readable only after the job finishes.  The bus is the *live* complement:
while a sweep is still executing, the runner publishes job lifecycle
events (started / finished / failed / retried / cached), job
phase transitions, and periodic wall-clock heartbeats (simulated-time
progress, events scheduled, peak RSS) into one append-only JSON Lines
file next to the cache.  :class:`repro.obs.rundir.RunView` folds it
into job states for ``python -m repro.obs report``, live or after the
fact; finished runs keep it as a forensic timeline.

Transport
---------
Every process — the scheduling parent and each worker, once per attempt
it serves — opens the same file with ``O_APPEND`` and emits each event
as a **single ``os.write`` of one newline-terminated JSON line**.  POSIX
guarantees append-mode writes of this size land atomically at end-of-file, so
concurrent workers never interleave bytes mid-line and no locks or
queues are needed; a reader at worst sees a not-yet-complete final line,
which :class:`JsonlTail` holds back.  Events are deliberately small
(well under the 4 KiB atomicity floor); :meth:`EventBus.emit` refuses
oversized records rather than risking a torn line.

Determinism contract (inherited from PR 2): the bus is **default-off**
(``REPRO_BUS`` unset) and costs nothing when off; when on, it observes
but never mutates — no simulator events, no RNG draws — so results are
bit-identical either way.  Bus records carry *wall-clock* timestamps and
process ids, which is why they live in their own ``events.jsonl`` file,
segregated from every golden-checked artifact (cache entries and
traces).

Schema v2 event types and their payload fields (beyond ``v``/``type``/
``ts``/``pid``):

==================  ==================================================
``run_started``     ``total`` (jobs in this ``run_jobs`` call)
``run_finished``    ``stats`` (final :meth:`RunnerStats.snapshot` dict)
``job_started``     ``key, kind, scheme, seed, attempt``
``job_finished``    ``key, wall_time, events, attempts``
``job_failed``      ``key, error, attempts``
``job_retried``     ``key, attempt`` (the attempt that just failed)
``job_cached``      ``key`` (served from the on-disk cache)
``phase_started``   ``key, phase``
``phase_finished``  ``key, phase, seconds``
``heartbeat``       ``key, sim_now, events, sched, peak_rss_kb``
==================  ==================================================

Schema 2 dropped v1's ``fleet_*`` family (a fleet's only record is its
journal, :mod:`repro.fleet`); a schema-1 file reads as empty.  Mid-run
checkpoints and their ``job_resumed`` event are gone too; a line of an
unknown type is skipped, so an older file holding one still reads.

``heartbeat.sched`` is the simulator's monotone event sequence counter —
a live proxy for work done that the hot loop already maintains, so
heartbeats read it for free; ``events`` (``events_processed``) updates
at ``run(until=...)`` chunk boundaries.  A reader of the file can derive
events/s from consecutive heartbeats' ``sched``/``ts`` deltas.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = [
    "BUS_SCHEMA",
    "BUS_FILENAME",
    "EVENT_TYPES",
    "EventBus",
    "JsonlTail",
    "bus_scope",
    "active_bus",
    "emit",
    "resolve_bus_path",
    "resolve_heartbeat_interval",
    "heartbeat_loop",
    "iter_events",
    "read_events",
    "validate_event",
]

#: bump when event types / fields change incompatibly
BUS_SCHEMA = 2

#: bus filename, written next to the cache entries of its run
BUS_FILENAME = "events.jsonl"

#: largest serialized line emit() will write — POSIX guarantees atomic
#: O_APPEND writes up to PIPE_BUF (>= 4096); stay safely under it
_MAX_LINE_BYTES = 3072

#: event type -> required payload fields (beyond v/type/ts/pid)
EVENT_TYPES: Dict[str, tuple] = {
    "run_started": ("total",),
    "run_finished": ("stats",),
    "job_started": ("key", "kind", "attempt"),
    "job_finished": ("key", "wall_time", "events", "attempts"),
    "job_failed": ("key", "error", "attempts"),
    "job_retried": ("key", "attempt"),
    "job_cached": ("key",),
    "phase_started": ("key", "phase"),
    "phase_finished": ("key", "phase", "seconds"),
    "heartbeat": ("key", "sim_now", "events", "sched", "peak_rss_kb"),
}

_TRUTHY = {"1", "on", "true", "yes"}
_OFF_VALUES = {"", "0", "off", "false", "no"}


def validate_event(rec: dict) -> None:
    """Raise ``ValueError`` if *rec* is not a well-formed bus event."""
    if not isinstance(rec, dict):
        raise ValueError(f"bus event must be a dict, got {type(rec).__name__}")
    if rec.get("v") != BUS_SCHEMA:
        raise ValueError(f"unsupported bus schema version {rec.get('v')!r}")
    etype = rec.get("type")
    required = EVENT_TYPES.get(etype)
    if required is None:
        raise ValueError(f"unknown bus event type {etype!r}")
    if not isinstance(rec.get("ts"), (int, float)):
        raise ValueError(f"bus event {etype!r} missing numeric wall time 'ts'")
    missing = [f for f in required if f not in rec]
    if missing:
        raise ValueError(f"bus event {etype!r} missing fields {missing}")


class EventBus:
    """Append-only JSONL event sink shared by every process of one run.

    Each process constructs its own :class:`EventBus` over the same path
    (the file descriptor is *not* shareable across ``spawn``-style
    workers); ``O_APPEND`` makes their single-``write`` lines compose
    without coordination.  Emission is best-effort: a full disk or a
    vanished directory degrades telemetry, never the sweep.
    """

    def __init__(self, path: Union[str, Path], *, job: Optional[str] = None):
        self.path = Path(path)
        self.job = job  # default `key` field stamped on emitted events
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: Optional[int] = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._lock = threading.Lock()  # heartbeat thread emits concurrently

    def emit(self, etype: str, **fields) -> Optional[dict]:
        """Validate and append one event; returns it (or ``None`` if the
        bus is closed or the write failed — telemetry never raises)."""
        if self._fd is None:
            return None
        rec = {"v": BUS_SCHEMA, "type": etype, "ts": time.time(),
               "pid": os.getpid()}
        if "key" not in fields and "key" in EVENT_TYPES.get(etype, ()):
            rec["key"] = self.job  # may be None outside a job scope
        rec.update(fields)
        validate_event(rec)
        line = json.dumps(rec, sort_keys=True) + "\n"
        data = line.encode("utf-8")
        if len(data) > _MAX_LINE_BYTES:
            raise ValueError(
                f"bus event {etype!r} serializes to {len(data)} bytes, over "
                f"the {_MAX_LINE_BYTES}-byte atomic-append budget; trim its "
                f"payload fields"
            )
        try:
            with self._lock:
                if self._fd is None:
                    return None
                os.write(self._fd, data)
        except OSError:  # pragma: no cover - disk trouble
            return None
        return rec

    def close(self) -> None:
        """Close the file descriptor (idempotent)."""
        with self._lock:
            fd, self._fd = self._fd, None
        if fd is not None:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventBus path={self.path} job={self.job}>"


_ACTIVE_BUS: Optional[EventBus] = None


@contextmanager
def bus_scope(path: Optional[Union[str, Path]], *, job: Optional[str] = None):
    """Make an :class:`EventBus` over *path* the process-active bus.

    Yields the bus, or ``None`` when *path* is unset — callers wrap
    unconditionally and test the yield.
    The active bus is what :func:`emit` and the phase hooks in
    :mod:`repro.obs.runtime` publish to.
    """
    global _ACTIVE_BUS
    bus = EventBus(path, job=job) if path is not None else None
    prev, _ACTIVE_BUS = _ACTIVE_BUS, bus
    try:
        yield bus
    finally:
        _ACTIVE_BUS = prev
        if bus is not None:
            bus.close()


def active_bus() -> Optional[EventBus]:
    """The bus installed by :func:`bus_scope` in this process, if any."""
    return _ACTIVE_BUS


def emit(etype: str, **fields) -> Optional[dict]:
    """Publish on the process-active bus; no-op (``None``) when off."""
    bus = _ACTIVE_BUS
    if bus is None:
        return None
    return bus.emit(etype, **fields)


def resolve_bus_path(store=None, bus=None) -> Optional[Path]:
    """Resolve where (whether) this run's bus file lives.

    ``bus=None`` honours ``$REPRO_BUS``: unset/falsy disables, a truthy
    flag (``1``/``on``/...) places :data:`BUS_FILENAME` next to the
    cache (*store*'s root — no cache means no implicit location, so the
    flag is ignored with the bus off), and anything else is taken as an
    explicit file path.  ``bus=False`` disables; a str/Path is used
    as-is.
    """
    if bus is False:
        return None
    if bus is not None:
        return Path(bus).expanduser()
    env = os.environ.get("REPRO_BUS", "").strip()
    if env.lower() in _OFF_VALUES:
        return None
    if env.lower() in _TRUTHY:
        if store is None:
            return None
        return Path(store.root) / BUS_FILENAME
    return Path(env).expanduser()


def resolve_heartbeat_interval(interval: Optional[float] = None) -> float:
    """Wall seconds between heartbeats; ``$REPRO_BUS_INTERVAL`` default 1.0.

    An explicit *interval* that is not finite raises ``ValueError``."""
    if interval is not None:
        interval = float(interval)
        if not math.isfinite(interval):
            raise ValueError("interval must be a finite number of wall "
                             f"seconds, got {interval!r}")
        return max(0.05, interval)
    env = os.environ.get("REPRO_BUS_INTERVAL", "").strip()
    try:
        value = float(env) if env else 1.0
    except ValueError:
        value = math.nan
    # an unparseable or non-finite knob: fall back rather than crash a sweep
    return max(0.05, value) if math.isfinite(value) else 1.0


@contextmanager
def heartbeat_loop(bus: Optional[EventBus], interval: Optional[float] = None):
    """Emit periodic ``heartbeat`` events from a daemon thread.

    Each beat samples the active job observation's registered simulator
    (see :func:`repro.obs.runtime.note_simulator`): simulated ``now``,
    ``events_processed`` (updated at run-chunk boundaries) and the live
    event sequence counter, plus the process's peak RSS.  Sampling reads
    a few attributes from another thread and never touches simulation
    state, so a heartbeating run is bit-identical to a silent one.  With
    *bus* ``None`` this is a no-op context.
    """
    if bus is None:
        yield
        return
    from .runtime import _peak_rss_kb, active

    interval = resolve_heartbeat_interval(interval)
    stop = threading.Event()

    def beat() -> None:
        obs = active()
        sim = getattr(obs, "simulator", None) if obs is not None else None
        bus.emit(
            "heartbeat",
            sim_now=float(sim.now) if sim is not None else None,
            events=int(sim.events_processed) if sim is not None else None,
            sched=int(sim._seq) if sim is not None else None,
            peak_rss_kb=_peak_rss_kb(),
        )

    def loop() -> None:
        while not stop.wait(interval):
            beat()

    thread = threading.Thread(target=loop, name="repro-bus-heartbeat",
                              daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=2.0)
        beat()  # final beat: the job's closing progress sample


class JsonlTail:
    """Incremental reader of a JSON Lines file other processes append to:
    keeps a byte *offset* and holds back an unterminated last line (a
    writer mid-append) until a later read completes it, so each complete
    line is returned exactly once and a refresh reads only new bytes."""

    def __init__(self, path: Union[str, Path], offset: int = 0):
        self.path = Path(path)
        self.offset = int(offset)
        self._partial = b""

    def lines(self) -> List[bytes]:
        """Complete, non-blank lines appended since the last call."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
        except OSError:
            return []
        self.offset += len(chunk)
        lines = (self._partial + chunk).split(b"\n")
        self._partial = lines.pop()  # b"" when the chunk ended in a newline
        return [line for line in lines if line.strip()]

    def records(self, validate) -> List[dict]:
        """Parsed :meth:`lines` that *validate* accepts (raises no ValueError)."""
        out = []
        for line in self.lines():
            try:
                rec = json.loads(line)
                validate(rec)
            except ValueError:
                continue
            out.append(rec)
        return out


def iter_events(path: Union[str, Path]) -> Iterator[dict]:
    """Stream a bus file's valid events, holding back a torn final line."""
    return iter(JsonlTail(path).records(validate_event))


def read_events(path: Union[str, Path]) -> List[dict]:
    """Load a whole bus file into memory (missing file -> empty list)."""
    return list(iter_events(path))
