"""Opt-in sampling profiler for the event loop.

Attached via ``Simulator.profiler``, the profiler takes over event
dispatch and times every ``period``-th callback with
``time.perf_counter``, attributing the cost to the callback's qualified
name.  Sampling (rather than timing every event) keeps the profiled
run's slowdown small while still ranking hot callbacks accurately over
the millions of events a real run processes; ``est_time`` scales the
sampled time back up by the period.

The profiler observes wall time only — it never touches simulation
state, so a profiled run produces identical results (the dispatch path
calls exactly ``fn(*args)`` either way).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

__all__ = ["SamplingProfiler"]


class SamplingProfiler:
    """Samples event-callback wall time; see :meth:`top` for results."""

    def __init__(self, period: int = 16):
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = int(period)
        self.events = 0
        #: qualname -> [sample_count, sampled_seconds]
        self.samples: Dict[str, List[float]] = {}

    def dispatch(self, fn, args) -> None:
        """Run one event callback, timing it if it falls on the sampling grid."""
        self.events += 1
        if self.events % self.period:
            fn(*args)
            return
        t0 = perf_counter()
        fn(*args)
        dt = perf_counter() - t0
        key = getattr(fn, "__qualname__", None) or repr(fn)
        cell = self.samples.get(key)
        if cell is None:
            self.samples[key] = [1, dt]
        else:
            cell[0] += 1
            cell[1] += dt

    def top(self, n: int = 10) -> List[dict]:
        """The *n* hottest callbacks by estimated total wall time."""
        rows = [
            {
                "callback": name,
                "samples": int(count),
                "sampled_time": sampled,
                "est_time": sampled * self.period,
            }
            for name, (count, sampled) in self.samples.items()
        ]
        rows.sort(key=lambda r: (-r["est_time"], r["callback"]))
        return rows[:n]

    def snapshot(self) -> dict:
        """JSON-serializable summary for the job's cache entry."""
        return {
            "period": self.period,
            "events": self.events,
            "top": self.top(20),
        }
