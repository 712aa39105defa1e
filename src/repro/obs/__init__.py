"""Observability layer: metrics, traces, job records and reporting.

The simulation engine, links, queue disciplines and TCP senders all
carry an ``obs`` attachment point that defaults to ``None``; when a
:class:`Collector` is attached they publish structured signals into a
deterministic :class:`MetricsRegistry` and (optionally) a
schema-versioned JSONL trace.  A fresh job's cache entry carries what
it observed (phases, peak RSS, metrics), and ``python -m repro.obs
report <run-dir>`` turns a directory of entries/traces into wall-time,
throughput and queue-behaviour summaries, rendered from one
:class:`~repro.obs.rundir.RunView` fold of the directory.

Host time is not measured here.  The one seam for it is the engine's
``profiler`` slot: any object with ``dispatch(fn, args)`` set as
:attr:`JobObservation.profiler` is copied onto the job's simulator by
the experiment shell, and every event callback then runs through it.
``benchmarks/e2e``'s span tracer is the instrument that uses it.

Everything here is strictly passive: attaching a collector schedules no
simulator events and draws from no RNG stream, so instrumented and
uninstrumented runs produce bit-identical results (pinned by a golden
test).  Live telemetry (the ``REPRO_BUS`` event bus, whose job states
the report folds in) follows the same contract: events carry
wall-clock context but never feed back into results.  See
``docs/OBSERVABILITY.md`` for the full tour.
"""

from .bus import (
    BUS_SCHEMA,
    EventBus,
    active_bus,
    bus_scope,
    emit,
    iter_events,
    read_events,
    resolve_bus_path,
)
from .collect import Collector
from .metrics import Gauge, Histogram, MetricsRegistry, Reading
from .records import TRACE_SCHEMA, select, validate_record
from .report import format_table, generate_report
from .rundir import scheme_summary
from .runtime import (
    JobObservation,
    ObsFlags,
    active,
    note_simulator,
    observe_job,
    phase,
    resolve_obs_flags,
)
from .trace import iter_trace, read_trace, write_trace

__all__ = [
    "BUS_SCHEMA",
    "Collector",
    "EventBus",
    "Gauge",
    "Histogram",
    "JobObservation",
    "MetricsRegistry",
    "ObsFlags",
    "Reading",
    "TRACE_SCHEMA",
    "active",
    "active_bus",
    "bus_scope",
    "emit",
    "format_table",
    "generate_report",
    "iter_events",
    "iter_trace",
    "note_simulator",
    "observe_job",
    "phase",
    "read_events",
    "read_trace",
    "resolve_bus_path",
    "resolve_obs_flags",
    "scheme_summary",
    "select",
    "validate_record",
    "write_trace",
]
