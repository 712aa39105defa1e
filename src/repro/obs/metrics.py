"""Deterministic metrics primitives: gauges, histograms, readings.

All three instruments are plain Python state with no clocks, no RNG and
no background threads, so a registry snapshot is a pure function of the
simulation that fed it — the same fixed-seed run always yields the same
snapshot, which lets golden tests pin metric output exactly.

Histograms use *fixed* bucket edges supplied at creation time (never
auto-scaled from observed data) for the same reason: adaptive edges
would make two runs with slightly different inputs produce structurally
different snapshots.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Gauge", "Histogram", "Reading", "MetricsRegistry",
           "QUEUE_DELAY_EDGES", "QUEUE_LEN_EDGES", "CWND_EDGES"]

#: default bucket edges for queue-delay histograms (seconds)
QUEUE_DELAY_EDGES: Tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0,
)
#: default bucket edges for queue-length histograms (packets)
QUEUE_LEN_EDGES: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
)
#: default bucket edges for congestion-window histograms (packets)
CWND_EDGES: Tuple[float, ...] = (
    2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


class Gauge:
    """Last-set value (e.g. current controller probability)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record *value* as the gauge's current reading."""
        self.value = value

    def snapshot(self):
        """The last-set value (``None`` when never set)."""
        return self.value


class Reading:
    """A number some object already keeps, read when the snapshot is taken.

    What a component counts for itself (a queue's ``stats.drops``, a
    sender's ``timeouts``) is published by naming it, not by counting it
    a second time per event; an attribute the source lacks reads 0.
    """

    __slots__ = ("name", "source", "attr")

    def __init__(self, name: str, source: object, attr: str):
        self.name = name
        self.source = source
        self.attr = attr

    def snapshot(self):
        """The attribute's current value."""
        return getattr(self.source, self.attr, 0)


class Histogram:
    """Fixed-edge histogram with sum/count/min/max.

    ``edges`` are the *upper* bounds of the finite buckets; one implicit
    overflow bucket catches everything above the last edge.  Edges must
    be strictly increasing and are immutable after construction.
    """

    __slots__ = ("name", "edges", "counts", "total", "count", "min", "max")

    def __init__(self, name: str, edges: Sequence[float]):
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.edges = edges
        self.counts: List[int] = [0] * (len(edges) + 1)  # + overflow
        self.total = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Add one observation to its bucket and the running aggregates."""
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self):
        """JSON-clean dict: bucket edges/counts plus sum/count/min/max."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshot-able as JSON.

    Instrument names are free-form dotted strings; the convention used by
    the built-in hooks is ``<component>.<label>.<signal>`` (for example
    ``queue.bottleneck.fwd.drops`` or ``flow.0.cwnd``).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the :class:`Gauge` registered under *name*."""
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """Get-or-create the :class:`Histogram` under *name* (fixed edges)."""
        return self._get(name, Histogram, lambda: Histogram(name, edges))

    def reading(self, name: str, source: object, attr: str) -> Reading:
        """Publish ``source.attr`` under *name*; naming it again re-points it."""
        inst = self._get(name, Reading, lambda: Reading(name, source, attr))
        inst.source, inst.attr = source, attr
        return inst

    def _get(self, name, cls, make):
        inst = self._instruments.get(name)
        if inst is None:
            inst = make()
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, requested {cls.__name__}"
            )
        return inst

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable view of every instrument, sorted by name."""
        return {
            name: inst.snapshot()
            for name, inst in sorted(self._instruments.items())
        }
