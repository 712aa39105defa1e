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
because snapshots pickle the class by that name).  Its executable
specification — the original tuple-heap engine that always dispatches
through the heap and re-arms timers with a literal cancel-then-schedule
— lives in ``tests/differential/oracle.py`` as a test-only subclass; the
differential and property suites hold this engine to it bit for bit.
Nothing selects an engine at run time.

Snapshots carry the event list in a canonical form (``(time, seq, fn,
args, event)`` 5-tuples sorted by key), independent of the physical heap
layout — see :meth:`Simulator.__getstate__`.

Performance notes
-----------------
The event list is the hottest data structure in the whole reproduction —
every packet hop is at least two heap operations.  The comparison key is
a ``(time, seq, ...)`` tuple prefix: tuple comparison happens in C and
never reaches the third element (``seq`` is unique), which removes the
per-comparison Python call that used to dominate profiles.
Single-argument callbacks dispatch as a direct ``fn(arg)`` instead of
``fn(*args)``, no :class:`Event` handle is allocated unless the caller
can cancel, and back-to-back link departures bypass the heap entirely
via :meth:`Simulator.advance_if_clear`.
:meth:`Simulator.schedule`, :meth:`Simulator.schedule_fire` and
:meth:`Simulator.schedule_at` are deliberately flat (no delegation
between them) for the same reason.
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
_NEG_INF = float("-inf")

#: canonical (snapshot-format) heap entry: ``(time, seq, fn, args, event)``
_LegacyEntry = Tuple[float, int, Callable[..., Any], tuple, Optional["Event"]]

#: slots every snapshot carries (``_running``, ``profiler`` and the
#: inline-dispatch window are process-local and deliberately excluded;
#: the event list itself travels under the canonical ``"_heap"`` key)
_STATE_SLOTS = (
    "now",
    "seed",
    "_seq",
    "_live",
    "events_processed",
    "_stream_labels",
    "_stream_counts",
    "_streams",
)


#: the :class:`Event` slots a snapshot carries (``_qtime`` is re-derived)
_EVENT_STATE_SLOTS = ("time", "seq", "fn", "args", "cancelled", "fired", "_sim")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (e.g. scheduling in the past)."""


class Event:
    """A pending callback in the event list.

    Events order by ``(time, seq)``; ``seq`` is a monotonically
    increasing counter that breaks ties deterministically.  Cancellation is
    lazy: the event is flagged and skipped when popped.  The heap itself
    never compares :class:`Event` objects (its entries are keyed on
    tuples), so ``__lt__`` below exists only for explicit comparisons in
    user code and tests — the hot path never calls it.

    ``time``/``seq`` are the handle's *current* firing key.  After an
    in-place :meth:`Simulator.reschedule` they run ahead of the key of
    the heap entry the handle owns; ``_qtime`` remembers that entry's
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
        first cancellation of a still-pending event updates the owning
        simulator's live-event count.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        # The default slots state minus `_qtime`: snapshots export every
        # pending handle under its current key (see live_entries()), so
        # the physical-entry bookkeeping is private and re-derived on
        # restore — which keeps snapshot bytes layout-independent.
        return None, {name: getattr(self, name) for name in _EVENT_STATE_SLOTS}

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        # Also the default for snapshots that predate the slot: a live
        # handle sits in the restored heap under its own key; a cancelled
        # one was purged at capture and a fired one already popped.
        self._qtime = _INF if self.cancelled or self.fired else self.time

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
        variable-arity events, in the canonical snapshot format;
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

    Batching
    --------
    The real throughput lever is dispatching *without the heap*:
    :meth:`advance_if_clear` lets the link layer chain back-to-back
    departures inline — zero heap traffic, no run-loop iteration —
    whenever doing so is provably identical to scheduling through the
    heap; inline dispatches are counted into ``events_processed`` so the
    total equals what the heap-only test oracle counts.
    """

    __slots__ = (
        "now",
        "seed",
        "_seq",
        "_live",
        "_running",
        "events_processed",
        "_stream_labels",
        "_stream_counts",
        "_streams",
        "profiler",
        "_heap",
        "_horizon",
        "_ninline",
    )

    def __init__(self, seed: int = 1) -> None:
        self.now: float = 0.0
        self.seed = seed
        self._seq = 0
        self._live = 0  # non-cancelled, not-yet-fired events
        self._running = False
        self.events_processed = 0
        self._stream_labels: Set[str] = set()
        self._stream_counts: Dict[str, int] = {}
        self._streams: Dict[str, random.Random] = {}
        #: optional :class:`repro.obs.SamplingProfiler`; when set, event
        #: dispatch routes through it (results are unaffected — it times
        #: callbacks, nothing more)
        self.profiler: Optional[Any] = None
        self._heap: List[tuple] = []
        # Inline-dispatch window: -inf outside run() (never claim), the
        # run horizon inside an unbudgeted, unprofiled run().
        self._horizon: float = _NEG_INF
        self._ninline: int = 0

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
        rng = random.Random(f"{self.seed}/{label}")
        # Registered so snapshot forking can reseed every handed-out
        # stream in place (holders keep references to these objects).
        self._streams[label] = rng
        return rng

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
        self._live += 1
        ev = Event(time, seq, fn, args, sim=self)
        heapq.heappush(self._heap, (time, seq, fn, args, ev))
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
        self._live += 1
        if len(args) == 1:
            heapq.heappush(self._heap, (self.now + delay, seq, fn, args[0]))
        else:
            heapq.heappush(self._heap, (self.now + delay, seq, fn, args, None))

    def schedule_fire1(self, delay: float, fn: Callable[..., Any], arg: Any) -> None:
        """Single-argument :meth:`schedule_fire` (the per-packet shape).

        Skips the varargs tuple entirely: the argument rides inline in
        the heap entry and dispatches as ``fn(arg)``.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"bad delay {delay!r}: must be finite and >= 0")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (self.now + delay, seq, fn, arg))

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
        and snapshot state all equal what the two calls produce; a
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
                    self._live += 1
                event.time = time
                event.seq = seq
                event.args = args
                return event
        if event is not None:
            event.cancel()
        return self.schedule(delay, fn, *args)

    def pending(self) -> int:
        """Number of live (non-cancelled, not-yet-fired) events — O(1)."""
        return self._live

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            ``sim.now`` is left at ``until``.  ``None`` runs to exhaustion.
        max_events:
            Safety valve for tests; stop after this many events, leaving
            ``sim.now`` at the last one fired (live events may still
            precede ``until``).  Setting it disables inline batching so
            every dispatch is countable.

        A popped entry whose ``seq`` no longer matches its handle's is a
        wake-up left by :meth:`reschedule`: it is pushed back under the
        handle's current key without being counted, dispatched or
        allowed to move ``now``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        profiler = self.profiler
        heap = self._heap
        heappop = heapq.heappop
        horizon = until if until is not None else _INF
        budget = max_events if max_events is not None else -1
        if budget < 0 and profiler is None:
            # Open the inline-dispatch window for advance_if_clear():
            # batching is exact only when every dispatch is unbudgeted
            # and unprofiled.
            self._horizon = horizon
        try:
            while heap:
                entry = heappop(heap)
                if len(entry) == 4:
                    time, _, fn, arg = entry
                    if time > horizon:
                        heapq.heappush(heap, entry)
                        break
                    self.now = time
                    self._live -= 1
                    if profiler is None:
                        fn(arg)
                    else:
                        profiler.dispatch(fn, (arg,))
                else:
                    ev = entry[4]
                    if ev is not None:
                        if ev.cancelled:
                            ev._qtime = _INF  # the handle owns no entry now
                            continue
                        if entry[1] != ev.seq:
                            time = ev._qtime = ev.time
                            heapq.heappush(heap, (time, ev.seq, ev.fn, ev.args, ev))
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
            self._horizon = _NEG_INF
            # Inline dispatches claimed via advance_if_clear() count like
            # any other event; batched outside the loop as before.
            self.events_processed += processed + self._ninline
            self._ninline = 0

    def advance_if_clear(self, time: float) -> bool:
        """Claim an inline dispatch slot at *time*.

        The batching hook behind the link layer's departure drain: when it
        returns ``True``, the engine has advanced ``now`` to *time* and
        consumed one sequence number and one ``events_processed`` count,
        exactly as if the caller had scheduled a callback at *time* and
        the run loop had just popped it — the caller must then invoke that
        callback immediately, once.

        The claim succeeds only when it is provably equivalent to going
        through the heap: inside :meth:`run` (no ``max_events`` budget, no
        profiler), *time* within the run horizon, and no pending heap
        entry at or before *time* — any heap entry tied at *time* holds an
        older sequence number and must fire first.  (The test oracle
        never claims, which is what the differential suite diffs this
        against.)
        """
        # `time` beyond `_horizon` covers all three refusal modes at
        # once: outside run() the window is -inf, and a budgeted or
        # profiled run() never opens it.
        if time > self._horizon:
            return False
        heap = self._heap
        # A heap entry at or before `time` must fire first: every queued
        # seq predates the one we are about to consume, so ties always
        # block.
        if heap and heap[0][0] <= time:
            return False
        self.now = time
        self._seq += 1
        self._ninline += 1
        return True

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def live_entries(self) -> List[_LegacyEntry]:
        """Live events as ``(time, seq, fn, args, event)`` 5-tuples.

        Layout-neutral view of the event list for snapshots, diagnostics
        and integrity checks: cancelled-but-unpopped entries are excluded,
        and ``event`` is ``None`` for fire-and-forget callbacks.  The
        returned list is ordered by heap layout, not sorted; only its key
        multiset is meaningful.
        """
        out: List[_LegacyEntry] = []
        for entry in self._heap:
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

    def __getstate__(self) -> Dict[str, Any]:
        """Snapshot state: shared slots plus the canonical event list.

        ``__slots__`` means default pickling would already enumerate the
        slots, but two of them must not ride along: ``_running`` (a
        snapshot taken from inside a callback would restore into a
        simulator that refuses to run) and ``profiler`` (a wall-clock
        observer holding process-local state).  Checkpointing mid-``run``
        or with a profiler attached fails fast with a clear error instead
        of producing a snapshot that lies.

        The event list is exported under the canonical ``"_heap"`` key as
        :meth:`live_entries` 5-tuples sorted by ``(time, seq)``, so the
        bytes do not depend on the physical heap (flat 4-tuples,
        :meth:`reschedule` wake-ups) and the test oracle restores them
        too.  Cancelled-but-unpopped entries are purged from the
        exported copy (the live event list is untouched): lazy
        cancellation means a popped cancelled entry is skipped without
        side effects, so the purge cannot change the continuation — and
        it keeps a cancelled entry's possibly-unpicklable callback from
        blocking the snapshot.  Pop order depends only on the
        ``(time, seq)`` key multiset, so rebuilding the heap from the
        exported list is exact.
        """
        from ..snapshot.errors import SnapshotError

        if self._running:
            raise SnapshotError(
                "cannot snapshot a Simulator from inside run(); checkpoint "
                "between run(until=...) chunks instead"
            )
        if self.profiler is not None:
            raise SnapshotError(
                "cannot snapshot: a profiler is attached to the simulator; "
                "detach it (sim.profiler = None) around the snapshot"
            )
        state = {slot: getattr(self, slot) for slot in _STATE_SLOTS}
        # seq is unique, so the sort never compares past the key; a
        # sorted list is a valid heap and does not depend on the
        # physical heap layout
        state["_heap"] = sorted(self.live_entries())
        return state

    def _restore_shared(self, state: Dict[str, Any]) -> None:
        """Everything but the event list (which the test oracle lays out
        differently): the snapshot slots, process-local ones reset."""
        for slot in _STATE_SLOTS:
            setattr(self, slot, state[slot])
        self._running = False
        self.profiler = None
        self._horizon = _NEG_INF
        self._ninline = 0

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._restore_shared(state)
        heap: List[tuple] = []
        for entry in state["_heap"]:
            ev = entry[4]
            if ev is not None:
                if not ev.cancelled:
                    heap.append(entry)
                # _live in the shared state already excludes cancelled
                # entries, so dropping them here keeps the counter exact.
            elif len(entry[3]) == 1:
                heap.append((entry[0], entry[1], entry[2], entry[3][0]))
            else:
                heap.append(entry)
        heapq.heapify(heap)
        self._heap = heap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self._live}>"


#: the name every caller and annotation uses; the class keeps its
#: historical ``__name__`` because snapshots pickle it by reference
Simulator = ArraySimulator


def get_engine_class() -> type:
    """The one engine class.

    Kept for ``benchmarks/e2e`` (read-only for ordinary PRs), which
    stamps ``get_engine_class().__name__`` into its result header and
    wraps the scheduling methods found in the class ``__dict__``; goes
    when a ``benchmark`` PR drops that header field.
    """
    return ArraySimulator
