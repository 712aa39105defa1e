"""The event engine's executable specification, and the way tests install it.

:class:`LegacySimulator` is the original tuple-heap engine, moved here
from ``repro.sim.engine`` unchanged when the product stopped shipping
and selecting it: the heap stores ``(time, seq, fn, args, event)``
5-tuples, every dispatch goes through the heap, a timer is re-armed by
the literal ``cancel`` + ``schedule``.  It is deliberately the plainest
thing that implements the scheduling contract, so "the engine is
correct" means "it is indistinguishable from this" — event stream,
``(time, seq)`` keys, counters, the live event list.  The scenario-level
differential suite, the hypothesis properties and the unit tests all
parametrise over :data:`ENGINES` through the helpers below.

Do not optimise this file.  A change to the scheduling contract is made
here first, in the obvious way, and then in the engine.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.engine import (
    _INF,
    ArraySimulator,
    Event,
    SimulationError,
    _LegacyEntry,
)

__all__ = ["LegacySimulator", "ENGINES", "use_engine"]


class LegacySimulator(ArraySimulator):
    """The original tuple-heap engine (PR 1–5 behaviour, bit for bit).

    The heap stores ``(time, seq, fn, args, event)`` tuples rather than
    bare :class:`Event` objects; the ``event`` slot is ``None`` for
    callbacks scheduled through :meth:`Simulator.schedule_fire`, the
    fire-and-forget path used by the per-hop link machinery.  This engine
    has no next-event slot (``_next`` stays ``None``), so every dispatch
    goes through the heap — which is exactly what makes it the reference
    implementation for the differential suite.

    It keeps its own live count, the literal one: ``_live`` counts
    scheduled minus fired, and ``_dead``, bumped by :meth:`Event.cancel`,
    counts every cancellation — a handle is never revived here, and a
    popped cancelled entry changes neither.

    A subclass of the engine only for what is not scheduling (RNG
    streams, ``cancel``, the empty heap ``__init__`` leaves); every
    scheduling method is overridden.
    """

    __slots__ = ("_live",)

    def __init__(self, seed: int = 1) -> None:
        super().__init__(seed)
        self._live = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule *fn(*args)* to run *delay* seconds from now.

        *delay* must be finite and non-negative: a ``nan`` or ``inf``
        delay would silently corrupt heap ordering (``nan`` compares
        false against everything), so both raise :class:`SimulationError`.
        """
        # `not (0 <= delay)` is deliberate: it is the cheapest test that
        # also catches nan, which fails every comparison.
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"bad delay {delay!r}: must be finite and >= 0")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        ev = Event(time, seq, fn, args, sim=self)
        heapq.heappush(self._heap, (time, seq, fn, args, ev))
        return ev

    def schedule_fire(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule *fn(*args)* *delay* seconds from now, with no handle.

        Fire-and-forget fast path for callers that never cancel (the
        per-hop link machinery schedules two of these per packet): no
        :class:`Event` object is allocated, so there is nothing to
        cancel.  Ordering semantics are identical to :meth:`schedule` —
        the callback still consumes a sequence number and fires in
        schedule order on time ties.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"bad delay {delay!r}: must be finite and >= 0")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (self.now + delay, seq, fn, args, None))

    def schedule_fire1(self, delay: float, fn: Callable[..., Any], arg: Any) -> None:
        """Single-argument :meth:`schedule_fire` (the per-packet shape)."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"bad delay {delay!r}: must be finite and >= 0")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (self.now + delay, seq, fn, (arg,), None))

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule *fn(*args)* at absolute simulation *time*.

        *time* must be finite and not in the past; ``nan``/``inf`` raise
        :class:`SimulationError` instead of corrupting the event list.
        """
        if not self.now <= time < _INF:
            raise SimulationError(
                f"bad time {time!r}: must be finite and >= now {self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        ev = Event(time, seq, fn, args, sim=self)
        heapq.heappush(self._heap, (time, seq, fn, args, ev))
        return ev

    def reschedule(
        self, event: Optional[Event], delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """The contract itself: ``cancel(event)`` then ``schedule(...)``."""
        if event is not None:
            event.cancel()
        return self.schedule(delay, fn, *args)

    def pending(self) -> int:
        return self._live - self._dead

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            ``sim.now`` is left at ``until``.  ``None`` runs to exhaustion;
            ``nan`` raises :class:`SimulationError`.
        max_events:
            Safety valve for tests; stop after this many events.  ``0``
            dispatches nothing; a negative budget raises.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until != until:
            raise SimulationError("bad horizon nan: until must be a time or None")
        if max_events is not None:
            if max_events < 0:
                raise SimulationError(f"bad max_events {max_events!r}: must be >= 0")
            if max_events == 0:
                return
        self._running = True
        processed = 0
        profiler = self.profiler
        heap = self._heap
        heappop = heapq.heappop
        horizon = until if until is not None else _INF
        budget = max_events if max_events is not None else -1
        try:
            # Pop-first rather than peek-then-pop: the horizon is crossed
            # at most once per run() call, so pushing that single event
            # back is far cheaper than indexing heap[0] on every loop.
            while heap:
                entry = heappop(heap)
                ev = entry[4]
                if ev is not None and ev.cancelled:
                    continue
                time = entry[0]
                if time > horizon:
                    heapq.heappush(heap, entry)
                    break
                self.now = time
                self._live -= 1
                if ev is not None:
                    ev.fired = True
                if profiler is None:
                    entry[2](*entry[3])
                else:
                    profiler.dispatch(entry[2], entry[3])
                processed += 1
                if processed == budget:
                    # live events may precede `until`: `now` stays put
                    return
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            # Batched outside the loop: callbacks never observe this
            # counter mid-run, only harness code reads it afterwards.
            self.events_processed += processed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def live_entries(self) -> List[_LegacyEntry]:
        return [e for e in self._heap if e[4] is None or not e[4].cancelled]


#: what every engine-parametrised suite runs on — the specification and
#: the product's one engine — under the names test ids have always used
ENGINES = {"legacy": LegacySimulator, "array": ArraySimulator}

#: modules whose global ``Simulator`` constructs a run's simulator: the
#: one shell every packet scenario runs in
_CONSTRUCTION_SITES = ("repro.experiments.common",)


def use_engine(monkeypatch, name: str) -> None:
    """Have the experiment harnesses build ``ENGINES[name]``."""
    for module in _CONSTRUCTION_SITES:
        monkeypatch.setattr(f"{module}.Simulator", ENGINES[name])
