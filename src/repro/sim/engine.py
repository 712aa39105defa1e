"""Discrete-event simulation engine.

This is the substrate underneath every packet-level experiment in the
reproduction: a classic event-list simulator in the style of ns-2's
scheduler.  Events are kept in a binary heap keyed by ``(time, sequence)``
so that events scheduled for the same instant fire in the order they were
scheduled, which makes every simulation fully deterministic for a given
seed.

The simulator owns a master random seed; components derive independent
:class:`random.Random` streams from it via :meth:`Simulator.stream` so that
changing one traffic source's draws does not perturb another's.

One engine
----------
There is exactly one scheduler, :class:`ArraySimulator`; ``Simulator`` is
a second name for the same class (the name stays ``ArraySimulator``
because the end-to-end benchmark's result header prints
``get_engine_class().__name__``).  Its executable
specification — the original tuple-heap engine that always dispatches
through the heap and re-arms timers with a literal cancel-then-schedule
— lives in ``tests/differential/oracle.py`` as a test-only subclass; the
differential and property suites hold this engine to it bit for bit.
Nothing selects an engine at run time.

Performance notes
-----------------
The event list is the hottest data structure in the whole reproduction —
every packet hop is at least two events.  The comparison key is a
``(time, seq, ...)`` tuple prefix: tuple comparison happens in C and
never reaches the third element (``seq`` is unique), which removes the
per-comparison Python call that used to dominate profiles.
Single-argument callbacks dispatch as a direct ``fn(arg)`` instead of
``fn(*args)``, and no :class:`Event` handle is allocated unless the
caller can cancel.  An entry that is already the next to fire when it
is scheduled — more than a third of all events on a 50-flow dumbbell,
back-to-back link departures among them — waits in a one-entry slot in
front of the heap and is dispatched from there, with no
``heappush``/``heappop``.  Cancellations are the counted case:
:meth:`Simulator.pending` is the queued-entry count minus the dead
ones, so neither scheduling nor dispatch touches a counter.
:meth:`Simulator.schedule_fire1`, the per-hop call, writes the slot rule
out instead of calling :meth:`Simulator._push`.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = [
    "Event",
    "Simulator",
    "ArraySimulator",
    "SimulationError",
    "get_engine_class",
]

_INF = float("inf")

#: canonical heap entry, as :meth:`Simulator.live_entries` reports it:
#: ``(time, seq, fn, args, event)``
_LegacyEntry = Tuple[float, int, Callable[..., Any], tuple, Optional["Event"]]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (e.g. scheduling in the past)."""


class Event:
    """A pending callback in the event list.

    Events order by ``(time, seq)``; ``seq`` is a monotonically
    increasing counter that breaks ties deterministically.  Cancellation is
    lazy: the event is flagged and skipped when popped.  The heap never
    compares :class:`Event` objects: its entries are keyed on tuples.

    ``time``/``seq`` are the handle's *current* firing key.  After an
    in-place :meth:`Simulator.reschedule` they run ahead of the key of
    the queued entry the handle owns; ``_qtime`` remembers that entry's
    time (``inf`` once the entry is gone) so the next re-arm can tell
    whether the entry still wakes the engine up early enough.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "_sim",
                 "_qtime")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim
        self._qtime = time

    def cancel(self) -> None:
        """Mark the event so it will be skipped when its time arrives.

        Idempotent, and safe on events that have already fired: only the
        first cancellation of a still-pending event counts its queued
        entry as dead in the owning simulator.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._dead += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{state} {self.fn!r}>"


class ArraySimulator:
    """Event-list simulator with deterministic ordering and seeded RNG.

    Parameters
    ----------
    seed:
        Master seed.  Every component stream derived through
        :meth:`stream` is a deterministic function of this seed and the
        stream's label, so simulations are exactly repeatable.

    Layout
    ------
    The heap is a single flat array of uniform, C-compared tuples whose
    shape *is* the dispatch code — no :class:`Event` handle, no varargs
    tuple, and no per-entry indirection on the hot path:

    ``(time, seq, fn, arg)``
        The dominant shape: a fire-and-forget callback with exactly one
        argument — both per-hop link callbacks and the AQM controller
        ticks.  Dispatches as a direct ``fn(arg)``.
    ``(time, seq, fn, args, event)``
        Cancellable (:meth:`schedule` / :meth:`schedule_at`) and
        variable-arity events, in the canonical form;
        ``event`` is ``None`` for multi-argument :meth:`schedule_fire`
        callbacks.

    ``seq`` is globally unique, so tuple comparison never reaches the
    third element and the two shapes share one heap; the run loop
    discriminates on ``len(entry)`` (a constant-time C call).

    Why not a slot-indexed payload table?  The textbook flat-array design
    — heap entries ``(time, seq, slot)`` indexing preallocated parallel
    ``fns``/``argv`` arrays with a free-list — was implemented and
    benchmarked first: it ran ~7% *slower* end to end than a plain
    5-tuple heap on CPython 3.11, because two indexed list stores, two
    indexed loads, and the free-list push/pop per event cost more than
    the one small tuple allocation they avoid (CPython recycles tuples
    from a freelist, and the specializing interpreter has already
    flattened the ``fn(*args)`` dispatch the design was meant to bypass).
    Carrying the payload word inline keeps the engine allocation-flat
    *and* bookkeeping-free; the payload "arrays" and the heap are one and
    the same.

    The next-event slot
    -------------------
    ``_next`` holds at most one entry, strictly earlier by ``(time,
    seq)`` than every heap entry.  A new entry takes the slot when its
    time is before the slot entry's (which is pushed into the heap) or,
    with the slot empty, before ``heap[0]``'s; a new entry holds the
    newest ``seq`` and loses every tie, so ``<`` on the time is exact.
    :meth:`run` takes the slot before it pops the heap, so an entry that
    is the next to fire when scheduled never costs a push and a pop.
    """

    __slots__ = (
        "now",
        "seed",
        "_seq",
        "_dead",
        "_running",
        "events_processed",
        "_stream_labels",
        "_stream_counts",
        "profiler",
        "_heap",
        "_next",
    )

    def __init__(self, seed: int = 1) -> None:
        self.now: float = 0.0
        self.seed = seed
        self._seq = 0
        self._dead = 0  # queued entries of cancelled handles
        self._running = False
        self.events_processed = 0
        self._stream_labels: Set[str] = set()
        self._stream_counts: Dict[str, int] = {}
        #: optional dispatcher, any object with ``dispatch(fn, args)``;
        #: when set, every event callback runs through it and it must
        #: call ``fn(*args)`` exactly once.  Its users: the e2e
        #: benchmark's span tracer, the link-property checker
        #: (tests/properties) and the differential oracle
        self.profiler: Optional[Any] = None
        self._heap: List[tuple] = []
        self._next: Optional[tuple] = None

    # ------------------------------------------------------------------
    # random-number streams
    # ------------------------------------------------------------------
    def stream(self, label: str, *, unique: bool = False) -> random.Random:
        """Return an independent, reproducible RNG stream for *label*.

        Each label may be claimed only once per simulator: two components
        silently deriving the same stream would draw identical (perfectly
        correlated) random sequences, which is almost never intended, so a
        repeated label raises :class:`SimulationError`.  Components that
        are instantiated more than once per simulation (queue factories,
        jitter links, ...) pass ``unique=True`` to have a deterministic
        ``label``, ``label#1``, ``label#2``, ... suffix appended in
        claim order instead.
        """
        if unique:
            label = self._unique_label(label)
        if label in self._stream_labels:
            raise SimulationError(
                f"RNG stream label {label!r} already claimed; use a distinct "
                f"label or stream(..., unique=True) for per-instance streams"
            )
        self._stream_labels.add(label)
        return random.Random(f"{self.seed}/{label}")

    def _unique_label(self, prefix: str) -> str:
        """Deterministically suffix *prefix* so it has never been claimed."""
        n = self._stream_counts.get(prefix, 0)
        label = prefix if n == 0 else f"{prefix}#{n}"
        while label in self._stream_labels:
            n += 1
            label = f"{prefix}#{n}"
        self._stream_counts[prefix] = n + 1
        return label

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _push(self, entry: tuple) -> None:
        """Queue a new *entry* (it holds the newest ``seq``) by the slot rule."""
        nxt = self._next
        if nxt is None:
            heap = self._heap
            if not heap or entry[0] < heap[0][0]:
                self._next = entry
                return
            heapq.heappush(heap, entry)
        elif entry[0] < nxt[0]:
            self._next = entry
            heapq.heappush(self._heap, nxt)
        else:
            heapq.heappush(self._heap, entry)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule *fn(*args)* to run *delay* seconds from now.

        *delay* must be finite and non-negative: a ``nan`` or ``inf``
        delay would silently corrupt heap ordering (``nan`` compares
        false against everything), so both raise :class:`SimulationError`.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"bad delay {delay!r}: must be finite and >= 0")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args, sim=self)
        self._push((time, seq, fn, args, ev))
        return ev

    def schedule_fire(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule *fn(*args)* *delay* seconds from now, with no handle.

        Fire-and-forget fast path for callers that never cancel: no
        :class:`Event` object is allocated, so there is nothing to
        cancel.  Ordering semantics are identical to :meth:`schedule` —
        the callback still consumes a sequence number and fires in
        schedule order on time ties.  The single-argument shape gets a
        flat 4-tuple entry and direct dispatch.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"bad delay {delay!r}: must be finite and >= 0")
        seq = self._seq
        self._seq = seq + 1
        if len(args) == 1:
            self._push((self.now + delay, seq, fn, args[0]))
        else:
            self._push((self.now + delay, seq, fn, args, None))

    def schedule_fire1(self, delay: float, fn: Callable[..., Any], arg: Any) -> None:
        """Single-argument :meth:`schedule_fire` (the per-packet shape).

        Skips the varargs tuple entirely: the argument rides inline in
        the entry and dispatches as ``fn(arg)``; :meth:`_push` written out.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"bad delay {delay!r}: must be finite and >= 0")
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        nxt = self._next
        if nxt is None:
            heap = self._heap
            if not heap or time < heap[0][0]:
                self._next = (time, seq, fn, arg)
                return
            heapq.heappush(heap, (time, seq, fn, arg))
        elif time < nxt[0]:
            self._next = (time, seq, fn, arg)
            heapq.heappush(self._heap, nxt)
        else:
            heapq.heappush(self._heap, (time, seq, fn, arg))

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
        ev = Event(time, seq, fn, args, sim=self)
        self._push((time, seq, fn, args, ev))
        return ev

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (``None`` is a no-op)."""
        if event is not None:
            event.cancel()

    def reschedule(
        self, event: Optional[Event], delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Re-arm a timer: ``cancel(event)`` then ``schedule(delay, fn, *args)``.

        Those two calls *are* the contract (the test oracle runs them
        literally), and this method ends with them as its fallback.  A
        per-ACK timer (TCP's RTO) re-armed that way leaves one dead
        entry in the heap per ACK, so where nothing observable differs
        the handle's key is rewritten instead and the entry it already
        owns — keyed no later than the new deadline — stays behind as a
        wake-up that :meth:`run` re-keys when it surfaces.  A fresh
        ``seq`` is reserved at call time, so the firing key ``(time,
        seq)``, tie order, :meth:`pending`, ``events_processed``, ``now``
        and :meth:`live_entries` all equal what the two calls produce; a
        handle cancelled but not yet popped is revived the same way.
        Anything else (no handle, already fired, entry gone or keyed
        *after* the new deadline, another callback or simulator, a bad
        delay — which raises :class:`SimulationError` after *event* has
        been cancelled) takes the two calls.  Callers must keep the
        *returned* handle, as they would keep ``schedule``'s.
        """
        if (
            event is not None
            and 0.0 <= delay < _INF
            and not event.fired
            and event._sim is self
            and event.fn == fn
        ):
            time = self.now + delay
            if event._qtime <= time:
                seq = self._seq
                self._seq = seq + 1
                if event.cancelled:
                    event.cancelled = False
                    self._dead -= 1
                event.time = time
                event.seq = seq
                event.args = args
                return event
        if event is not None:
            event.cancel()
        return self.schedule(delay, fn, *args)

    def pending(self) -> int:
        """Number of live (non-cancelled, not-yet-fired) events — O(1)."""
        return len(self._heap) + (self._next is not None) - self._dead

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
            Safety valve for tests; stop after this many events, leaving
            ``sim.now`` at the last one fired (live events may still
            precede ``until``).  ``0`` dispatches nothing and leaves
            ``now`` where it is; a negative budget raises
            :class:`SimulationError`.

        A popped entry whose ``seq`` no longer matches its handle's is a
        wake-up left by :meth:`reschedule`: it is pushed back under the
        handle's current key without being counted, dispatched or
        allowed to move ``now``.
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
            while True:
                # an entry beyond the horizon, the earliest of all, goes
                # back into the slot
                entry = self._next
                if entry is not None:
                    self._next = None
                elif heap:
                    entry = heappop(heap)
                else:
                    break
                if len(entry) == 4:
                    time, _, fn, arg = entry
                    if time > horizon:
                        self._next = entry
                        break
                    self.now = time
                    if profiler is None:
                        fn(arg)
                    else:
                        profiler.dispatch(fn, (arg,))
                else:
                    ev = entry[4]
                    if ev is not None:
                        if ev.cancelled:
                            ev._qtime = _INF  # the handle owns no entry now
                            self._dead -= 1
                            continue
                        if entry[1] != ev.seq:
                            # the slot is empty here: any key may go to the heap
                            time = ev._qtime = ev.time
                            heapq.heappush(heap, (time, ev.seq, ev.fn, ev.args, ev))
                            continue
                    time = entry[0]
                    if time > horizon:
                        self._next = entry
                        break
                    self.now = time
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
            self.events_processed += processed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def live_entries(self) -> List[_LegacyEntry]:
        """Live events as ``(time, seq, fn, args, event)`` 5-tuples.

        Layout-neutral view of the event list for diagnostics and for
        the suites that compare this engine with its oracle: slot and
        heap together, cancelled-but-unpopped entries excluded, and
        ``event`` is ``None`` for fire-and-forget callbacks.  The returned
        list is ordered by physical layout, not sorted; only its key
        multiset is meaningful.
        """
        out: List[_LegacyEntry] = []
        queued = self._heap if self._next is None else [self._next, *self._heap]
        for entry in queued:
            if len(entry) == 4:
                out.append((entry[0], entry[1], entry[2], (entry[3],), None))
                continue
            ev = entry[4]
            if ev is None:
                out.append(entry)
            elif not ev.cancelled:
                # a reschedule() wake-up goes out under the handle's
                # current key, never the stale one it is queued under
                out.append(entry if entry[1] == ev.seq
                           else (ev.time, ev.seq, ev.fn, ev.args, ev))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self.pending()}>"


#: the name every caller and annotation uses; the class keeps its
#: historical ``__name__`` for the benchmark header (see above)
Simulator = ArraySimulator


def get_engine_class() -> type:
    """The one engine class.

    Kept for ``benchmarks/e2e`` (read-only for ordinary PRs), which
    stamps ``get_engine_class().__name__`` into its result header and
    wraps the scheduling methods found in the class ``__dict__``; goes
    when a ``benchmark`` PR drops that header field.
    """
    return ArraySimulator
