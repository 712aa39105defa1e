"""Measurement instruments: queue samplers and window counters.

Drops, per-ACK samples and everything else event-shaped are records on a
:class:`repro.obs.Collector`; what lives here is tick- or window-driven.
These are deliberately passive — they observe queues and links without
perturbing the simulation — and they support the paper's measurement
style: steady-state metrics over a window (the paper measures 100-300 s of
a 400 s run) and time series for the dynamic-behaviour experiment.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence

from .engine import Simulator
from .link import Link
from .queues.base import QueueDiscipline

__all__ = ["QueueSampler", "LinkWindow", "ThroughputSampler", "nearest_sample"]


def nearest_sample(times: Sequence[float], values: Sequence[int], t: float) -> int:
    """Value of the sample nearest to time *t* (ties to the earlier; 0 if none).

    *times* must be sorted.  Shared by :meth:`QueueSampler.length_at` and
    by analyses that carry an exported ``times``/``lengths`` series
    instead of the live sampler (the Section 2 case traces).
    """
    if not times:
        return 0
    i = bisect.bisect_left(times, t)
    if i <= 0:
        return values[0]
    if i >= len(times):
        return values[-1]
    before, after = times[i - 1], times[i]
    return values[i - 1] if t - before <= after - t else values[i]


class QueueSampler:
    """Periodically samples a queue's instantaneous length.

    Provides nearest-sample lookup by time, which the predictor analysis
    uses to ask "how full was the bottleneck queue when the end host saw a
    false positive?" (Figure 4 of the paper).
    """

    def __init__(self, sim: Simulator, qdisc: QueueDiscipline, interval: float = 0.01):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.qdisc = qdisc
        self.interval = interval
        self.times: List[float] = []
        self.lengths: List[int] = []
        sim.schedule(0.0, self._tick)

    def _tick(self) -> None:
        self.times.append(self.sim.now)
        self.lengths.append(len(self.qdisc))
        self.sim.schedule(self.interval, self._tick)

    def length_at(self, t: float) -> int:
        """Queue length at the sample nearest to time *t*."""
        return nearest_sample(self.times, self.lengths, t)

    def mean(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Mean sampled queue length over [start, end].

        ``times`` is sorted (samples are appended in simulation order),
        so the window is located with two bisections and only the
        in-window samples are touched — O(log n + w) instead of a full
        scan per call, which matters when sweeps query many windows over
        long histories.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end) if end is not None else len(self.times)
        vals = self.lengths[lo:hi]
        return sum(vals) / len(vals) if vals else 0.0


class LinkWindow:
    """Snapshot-based measurement window over a link and its queue.

    Open it at the start of the steady-state period, close it at the end;
    it then reports utilization, drop rate and arrivals over that window
    only, matching the paper's 100-300 s measurement methodology.
    """

    def __init__(self, sim: Simulator, link: Link):
        self.sim = sim
        self.link = link
        self._open_t: Optional[float] = None
        self._close_t: Optional[float] = None
        self._bytes0 = 0
        self._drops0 = 0
        self._arrivals0 = 0
        self._marks0 = 0

    def open(self) -> None:
        if self._open_t is not None and self._close_t is None:
            # A second open() would silently reset the baselines and
            # corrupt the in-progress measurement window.
            raise RuntimeError(
                "measurement window is already open; close() it before "
                "opening a new one"
            )
        self._close_t = None
        self._open_t = self.sim.now
        self._bytes0 = self.link.bytes_transmitted
        self._drops0 = self.link.qdisc.stats.drops
        self._arrivals0 = self.link.qdisc.stats.arrivals
        self._marks0 = self.link.qdisc.stats.marks

    def close(self) -> None:
        if self._open_t is None:
            raise RuntimeError("window was never opened")
        self._close_t = self.sim.now

    def _require_closed(self) -> float:
        if self._open_t is None or self._close_t is None:
            raise RuntimeError("window must be opened and closed first")
        return self._close_t - self._open_t

    @property
    def duration(self) -> float:
        return self._require_closed()

    @property
    def utilization(self) -> float:
        dur = self._require_closed()
        if dur <= 0:
            return 0.0
        used = (self.link.bytes_transmitted - self._bytes0) * 8.0
        return min(1.0, used / (self.link.bandwidth * dur))

    @property
    def drop_rate(self) -> float:
        self._require_closed()
        arrivals = self.link.qdisc.stats.arrivals - self._arrivals0
        drops = self.link.qdisc.stats.drops - self._drops0
        return drops / arrivals if arrivals else 0.0

    @property
    def mark_rate(self) -> float:
        self._require_closed()
        arrivals = self.link.qdisc.stats.arrivals - self._arrivals0
        marks = self.link.qdisc.stats.marks - self._marks0
        return marks / arrivals if arrivals else 0.0


class ThroughputSampler:
    """Per-interval rates from monotone byte counters, all read by one
    tick event per sample instant.

    The Figure 12 staircase (a counter per cohort) and the Section 4.7
    CBR squeeze (one aggregate counter) plot throughput over time with
    it.  Checkpointed runs need picklable counters (``functools.partial``
    of a module-level function, not a lambda).
    """

    def __init__(self, sim: Simulator, *counter_fns, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.counter_fns = counter_fns
        self.interval = interval
        self.times: List[float] = []
        #: one rate series (bits per second) per counter
        self.series: List[List[float]] = [[] for _ in counter_fns]
        self._last = [fn() for fn in counter_fns]
        sim.schedule(interval, self._tick)

    @property
    def rates_bps(self) -> List[float]:
        """The first counter's series (the only one, for a single counter)."""
        return self.series[0]

    def _tick(self) -> None:
        self.times.append(self.sim.now)
        for k, fn in enumerate(self.counter_fns):
            cur = fn()
            self.series[k].append((cur - self._last[k]) * 8.0 / self.interval)
            self._last[k] = cur
        self.sim.schedule(self.interval, self._tick)
