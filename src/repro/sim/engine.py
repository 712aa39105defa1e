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

Engine backends
---------------
Two interchangeable backends implement the same scheduling contract:

:class:`LegacySimulator`
    The original tuple-heap engine: the heap stores
    ``(time, seq, fn, args, event)`` 5-tuples.  Kept selectable forever as
    the executable specification the differential suite
    (``tests/differential``) checks the fast engine against.

:class:`ArraySimulator` (default)
    A flat-entry engine: the heap is a single flat array of uniform
    shape-coded tuples — the dominant single-argument fire-and-forget
    event carries its callback and payload word inline and dispatches
    without building or unpacking a varargs tuple (see the class
    docstring for the layout rationale, including why the slot-indexed
    parallel-array variant measured slower).  It also exposes
    :meth:`Simulator.advance_if_clear`, the hook the link layer uses to
    drain back-to-back departures without touching the heap at all.
    Both backends produce bit-identical event ordering, sequence
    numbering, and ``events_processed`` counts.

Instantiating :class:`Simulator` directly returns a concrete backend,
chosen by the ``REPRO_ENGINE`` environment variable (``array`` — the
default — or ``legacy``), read lazily at construction time so tests can
flip it per-instance.  When the optional compiled extension is built
(see :mod:`repro.compiled`), the array family is served by
:class:`repro.compiled.engine.CompiledSimulator` — the same engine with
its hot methods in C — unless ``REPRO_COMPILED=0`` pins pure Python.
Snapshots use a shared canonical state format (the legacy 5-tuple
list), so a checkpoint captured under one engine restores under any
other — see :func:`repro.snapshot.restore_bytes`.

Performance notes
-----------------
The event list is the hottest data structure in the whole reproduction —
every packet hop is at least two heap operations.  Both engines keep the
comparison key a ``(time, seq, ...)`` tuple prefix: tuple comparison
happens in C and never reaches the third element (``seq`` is unique),
which removes the per-comparison Python call that used to dominate
profiles.  The array engine goes further: single-argument callbacks
dispatch as a direct ``fn(arg)`` instead of ``fn(*args)``, no
:class:`Event` handle is allocated unless the caller can cancel, and
back-to-back link departures bypass the heap entirely via
:meth:`Simulator.advance_if_clear`.
:meth:`Simulator.schedule`, :meth:`Simulator.schedule_fire` and
:meth:`Simulator.schedule_at` are deliberately flat (no delegation
between them) for the same reason.
"""

from __future__ import annotations

import heapq
import os
import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = [
    "Event",
    "Simulator",
    "LegacySimulator",
    "ArraySimulator",
    "SimulationError",
    "get_engine_class",
]

_INF = float("inf")
_NEG_INF = float("-inf")

#: canonical (legacy-format) heap entry: ``(time, seq, fn, args, event)``
_LegacyEntry = Tuple[float, int, Callable[..., Any], tuple, Optional["Event"]]

#: slots every backend shares and every snapshot carries (``_running`` and
#: ``profiler`` are process-local and deliberately excluded; the event
#: list itself travels under the canonical ``"_heap"`` key)
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
    never compares :class:`Event` objects (both engines key their heaps on
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
        # the physical-entry bookkeeping is engine-private and re-derived
        # on restore — which keeps snapshot bytes engine-independent.
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


class Simulator:
    """Event-list simulator with deterministic ordering and seeded RNG.

    ``Simulator(seed=...)`` is a virtual constructor: it returns an
    instance of the backend selected by ``REPRO_ENGINE`` (``array`` by
    default, ``legacy`` for the original tuple-heap engine).  All public
    behaviour — scheduling, cancellation, run semantics, stream
    derivation, snapshot state — is identical between backends; only the
    internal event-list representation differs.

    Parameters
    ----------
    seed:
        Master seed.  Every component stream derived through
        :meth:`stream` is a deterministic function of this seed and the
        stream's label, so simulations are exactly repeatable.
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
    )

    def __new__(cls, *args: Any, **kwargs: Any) -> "Simulator":
        if cls is Simulator:
            cls = get_engine_class()
        return object.__new__(cls)

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
    # shared scheduling helpers
    # ------------------------------------------------------------------
    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (``None`` is a no-op)."""
        if event is not None:
            event.cancel()

    def reschedule(
        self, event: Optional[Event], delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Re-arm a timer: ``cancel(event)`` then ``schedule(delay, fn, *args)``.

        This two-call body *is* the contract, and the legacy engine runs
        it literally.  Faster engines may keep *event*'s heap entry and
        return the same handle, but only in ways no caller can observe:
        a fresh ``seq`` is reserved at call time, so the firing key
        ``(time, seq)``, tie order, :meth:`pending`, ``events_processed``,
        ``now`` and snapshot state all equal what the two calls produce.
        Callers must therefore keep the *returned* handle, as they would
        keep ``schedule``'s.  A bad *delay* raises
        :class:`SimulationError` after *event* has been cancelled,
        exactly as the two calls would.
        """
        if event is not None:
            event.cancel()
        return self.schedule(delay, fn, *args)

    def pending(self) -> int:
        """Number of live (non-cancelled, not-yet-fired) events — O(1)."""
        return self._live

    def advance_if_clear(self, time: float) -> bool:
        """Claim an inline dispatch slot at *time*; engine-dependent.

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
        older sequence number and must fire first.  The legacy engine
        never claims (it always returns ``False``), which keeps it the
        plain executable specification the differential suite diffs the
        array engine against.
        """
        return False

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def live_entries(self) -> List[_LegacyEntry]:
        """Live events as ``(time, seq, fn, args, event)`` 5-tuples.

        Engine-neutral view of the event list for snapshot diagnostics and
        integrity checks: cancelled-but-unpopped entries are excluded, and
        ``event`` is ``None`` for fire-and-forget callbacks.  The returned
        list is ordered by heap layout, not sorted; only its key multiset
        is meaningful.
        """
        raise NotImplementedError

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
        legacy-format 5-tuples sorted by ``(time, seq)`` regardless of
        engine, so a snapshot taken under one backend restores under the
        other.  Cancelled-but-unpopped entries are purged from the
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
        # engine's physical heap layout
        state["_heap"] = sorted(self.live_entries())
        return state

    def _restore_shared(self, state: Dict[str, Any]) -> None:
        for slot in _STATE_SLOTS:
            setattr(self, slot, state[slot])
        self._running = False
        self.profiler = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self._live}>"


class LegacySimulator(Simulator):
    """The original tuple-heap engine (PR 1–5 behaviour, bit for bit).

    The heap stores ``(time, seq, fn, args, event)`` tuples rather than
    bare :class:`Event` objects; the ``event`` slot is ``None`` for
    callbacks scheduled through :meth:`Simulator.schedule_fire`, the
    fire-and-forget path used by the per-hop link machinery.  This engine
    never batches (:meth:`advance_if_clear` is a constant ``False``), so
    every dispatch goes through the heap — which is exactly what makes it
    the reference implementation for the differential suite.
    """

    __slots__ = ("_heap",)

    def __init__(self, seed: int = 1) -> None:
        super().__init__(seed)
        self._heap: List[_LegacyEntry] = []

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
            Safety valve for tests; stop after this many events.
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
                    break
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            # Batched outside the loop: callbacks never observe this
            # counter mid-run, only harness code reads it afterwards.
            self.events_processed += processed

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def live_entries(self) -> List[_LegacyEntry]:
        return [e for e in self._heap if e[4] is None or not e[4].cancelled]

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._restore_shared(state)
        heap = list(state["_heap"])
        # Re-heapify defensively: the canonical export is already a valid
        # heap, but an array-engine export interleaved with purges (or a
        # hand-edited snapshot) might not be, and pop order depends only
        # on the key multiset.
        heapq.heapify(heap)
        self._heap = heap


class ArraySimulator(Simulator):
    """Flat-entry event engine with inline departure batching.

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
        variable-arity events, bit-compatible with the legacy engine's
        entries; ``event`` is ``None`` for multi-argument
        :meth:`schedule_fire` callbacks.

    ``seq`` is globally unique, so tuple comparison never reaches the
    third element and the two shapes share one heap; the run loop
    discriminates on ``len(entry)`` (a constant-time C call).

    Why not a slot-indexed payload table?  The textbook flat-array design
    — heap entries ``(time, seq, slot)`` indexing preallocated parallel
    ``fns``/``argv`` arrays with a free-list — was implemented and
    benchmarked first: it ran ~7% *slower* end to end than the legacy
    tuple heap on CPython 3.11, because two indexed list stores, two
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
    heap.  The claim rules live in the base-class docstring; inline
    dispatches are counted into ``events_processed`` so the total stays
    bit-identical to the legacy engine's.
    """

    __slots__ = ("_heap", "_horizon", "_ninline")

    def __init__(self, seed: int = 1) -> None:
        super().__init__(seed)
        self._heap: List[tuple] = []
        # Inline-dispatch window: -inf outside run() (never claim), the
        # run horizon inside an unbudgeted, unprofiled run().
        self._horizon: float = _NEG_INF
        self._ninline: int = 0

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

    def reschedule(
        self, event: Optional[Event], delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Re-arm *event* in place when its heap entry can stay put.

        See :meth:`Simulator.reschedule` for the contract.  A per-ACK
        timer (TCP's RTO) re-armed the two-call way leaves one dead entry
        in the heap per ACK; here the handle's key is rewritten instead
        and the entry it already owns — keyed no later than the new
        deadline — stays behind as a wake-up that :meth:`run` re-keys
        when it surfaces.  A handle cancelled but not yet popped is
        revived the same way.  Anything else (no handle, already fired,
        entry gone or keyed *after* the new deadline, another callback
        or simulator, a bad delay) takes the literal two calls.
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
        return super().reschedule(event, delay, fn, *args)

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
            Safety valve for tests; stop after this many events.  Setting
            it disables inline batching so every dispatch is countable.

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
                    break
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
        # See Simulator.advance_if_clear for the contract.  `time` beyond
        # `_horizon` covers all three refusal modes at once: outside
        # run() the window is -inf, and a budgeted or profiled run()
        # never opens it.
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

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._restore_shared(state)
        self._horizon = _NEG_INF
        self._ninline = 0
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


#: recognised ``REPRO_ENGINE`` spellings → concrete class
_ENGINE_ALIASES = {
    "array": "ArraySimulator",
    "v2": "ArraySimulator",
    "": "ArraySimulator",  # unset/empty → default
    "legacy": "LegacySimulator",
    "tuple": "LegacySimulator",
    "v1": "LegacySimulator",
    "compiled": "CompiledSimulator",
    "cext": "CompiledSimulator",
}


def get_engine_class(name: Optional[str] = None) -> type:
    """Resolve an engine name to its :class:`Simulator` subclass.

    With ``name=None`` the ``REPRO_ENGINE`` environment variable decides
    (read lazily on every call, so tests can flip it between
    instantiations); unset or empty selects the array engine family.

    Two orthogonal knobs compose here: ``REPRO_ENGINE`` picks the engine
    *family* (array vs legacy), and ``REPRO_COMPILED`` picks the array
    family's *implementation* (the optional compiled extension vs pure
    Python — see :mod:`repro.compiled`).  When the array family is
    selected and a compiled engine is active, the compiled class is
    returned; the legacy engine is always pure Python.  Spelling
    ``REPRO_ENGINE=compiled`` *requires* the compiled engine and raises
    :class:`SimulationError` when no extension is built — use it when a
    silent fallback would invalidate a measurement.
    """
    if name is None:
        name = os.environ.get("REPRO_ENGINE", "")
    key = name.strip().lower()
    cls_name = _ENGINE_ALIASES.get(key)
    if cls_name is None:
        raise SimulationError(
            f"unknown engine {name!r} (REPRO_ENGINE): use 'array', 'legacy' "
            f"or 'compiled'"
        )
    if cls_name == "ArraySimulator":
        from ..compiled import engine_class as _compiled_engine_class

        compiled = _compiled_engine_class()
        if compiled is not None:
            return compiled
        return ArraySimulator
    if cls_name == "CompiledSimulator":
        from ..compiled import engine_class as _compiled_engine_class

        compiled = _compiled_engine_class()
        if compiled is None:
            raise SimulationError(
                f"engine {name!r} (REPRO_ENGINE) requires the compiled "
                f"extension, which is not built or is disabled by "
                f"REPRO_COMPILED=0; build it with: python -m repro.compiled.build"
            )
        return compiled
    return globals()[cls_name]
