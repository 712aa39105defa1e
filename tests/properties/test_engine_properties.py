"""Hypothesis properties of the event-engine contract, on engine and oracle.

Each property is parametrized over the product's one engine
(:class:`ArraySimulator`) and its tuple-heap specification
(:class:`LegacySimulator`, ``tests/differential/oracle.py``), and one
cross-engine property runs the same randomized schedule through both
and demands identical dispatch sequences — the randomized counterpart
of the scenario-level suite in ``tests/differential``.

The timer-program property near the bottom is the equivalence proof for
:meth:`Simulator.reschedule`: the oracle runs it as the literal
``cancel`` + ``schedule``, and the in-place engine must be
indistinguishable from that after every step of a random program.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import ArraySimulator

from ..differential.oracle import LegacySimulator

ENGINES = [LegacySimulator, ArraySimulator]

#: event times including exact duplicates (ties are the interesting case)
delay_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
              allow_infinity=False).map(lambda d: round(d, 3)),
    min_size=1, max_size=60,
)


class Recorder:
    """Fire log whose bound method is the scheduled callback."""

    def __init__(self):
        self.hits = []

    def hit(self, tag):
        self.hits.append(tag)


@pytest.mark.parametrize("engine", ENGINES)
@given(delays=delay_lists)
@settings(max_examples=50)
def test_same_timestamp_fifo_order(engine, delays):
    """Ties dispatch in schedule order; overall order is (time, seq)."""
    sim = engine(seed=0)
    rec = Recorder()
    for i, d in enumerate(delays):
        sim.schedule_fire(d, rec.hit, (d, i))
    sim.run()
    assert rec.hits == sorted(rec.hits)  # time asc, then insertion order
    assert len(rec.hits) == len(delays)
    assert sim.events_processed == len(delays)


@pytest.mark.parametrize("engine", ENGINES)
@given(delays=delay_lists, data=st.data())
@settings(max_examples=50)
def test_cancel_idempotent_including_unpopped(engine, delays, data):
    """Repeated cancels (before and after firing) never corrupt counts."""
    sim = engine(seed=0)
    rec = Recorder()
    events = [sim.schedule(d, rec.hit, (d, i)) for i, d in enumerate(delays)]
    doomed = data.draw(st.sets(st.integers(0, len(events) - 1)))
    for i in doomed:
        events[i].cancel()
        events[i].cancel()  # idempotent while still on the heap
    assert sim.pending() == len(events) - len(doomed)
    sim.run()
    fired = {tag[1] for tag in rec.hits}
    assert fired == set(range(len(events))) - doomed
    assert sim.events_processed == len(events) - len(doomed)
    for ev in events:
        ev.cancel()  # idempotent after run: fired or already cancelled
    assert sim.pending() == 0


@pytest.mark.parametrize("engine", ENGINES)
@given(delays=delay_lists, extra=delay_lists)
@settings(max_examples=50)
def test_schedule_during_fire_is_safe(engine, delays, extra):
    """Callbacks scheduling new events mid-run keep global time order."""
    sim = engine(seed=0)
    fired = []

    class Spawner:
        def __init__(self):
            self.budget = list(extra)

        def fire(self, tag):
            fired.append((sim.now, tag))
            if self.budget:
                d = self.budget.pop()
                sim.schedule_fire(d, self.fire, ("spawned", d))

    sp = Spawner()
    for i, d in enumerate(delays):
        sim.schedule_fire(d, sp.fire, ("root", i))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays) + (len(extra) - len(sp.budget))
    assert sim.events_processed == len(fired)


@pytest.mark.parametrize("engine", ENGINES)
@given(delays=delay_lists, extra=delay_lists,
       horizon=st.floats(min_value=0.0, max_value=12.0),
       budget=st.integers(1, 7))
@settings(max_examples=50)
def test_budgeted_chunks_equal_one_run_and_never_rewind(engine, delays, extra,
                                                        horizon, budget):
    """``run(until=T, max_events=k)`` repeated until a chunk comes up short
    fires the same ``(time, seq)`` sequence as one ``run(until=T)``; the
    clock never moves backwards and never passes a live event."""
    def build():
        sim = engine(seed=0)
        fired = []
        spare = list(extra)

        def fire(seq):
            fired.append((sim.now, seq))
            if spare:  # keyed off `now`, so a clock parked too far shows
                sim.schedule_fire1(spare.pop(), fire, sim._seq)

        for d in delays:
            sim.schedule_fire1(d, fire, sim._seq)
        return sim, fired

    ref, straight = build()
    ref.run(until=horizon)

    sim, chunked = build()
    clock = [sim.now]
    while True:
        before = sim.events_processed
        sim.run(until=horizon, max_events=budget)
        clock.append(sim.now)
        assert all(entry[0] >= sim.now for entry in sim.live_entries())
        if sim.events_processed - before < budget:
            break
    assert clock == sorted(clock)
    assert chunked == straight
    assert (sim.now, sim._seq, sim.events_processed, sim.pending()) == (
        ref.now, ref._seq, ref.events_processed, ref.pending())


@given(delays=delay_lists, data=st.data())
@settings(max_examples=50)
def test_engines_dispatch_identically(delays, data):
    """Same randomized schedule + cancels → identical dispatch on both."""
    doomed = data.draw(st.sets(st.integers(0, len(delays) - 1)))

    def run(engine):
        sim = engine(seed=0)
        rec = Recorder()
        events = [
            sim.schedule(d, rec.hit, (d, i)) for i, d in enumerate(delays)
        ]
        for i in doomed:
            events[i].cancel()
        sim.run()
        return rec.hits, sim.events_processed, sim.now, sim._seq

    assert run(LegacySimulator) == run(ArraySimulator)


# ----------------------------------------------------------------------
# reschedule(): in-place engines vs the literal two-call definition
# ----------------------------------------------------------------------
#: quarter-second grid: ties, earlier-than-queued and later-than-queued
#: deadlines all come up constantly
grid_delays = st.integers(0, 12).map(lambda k: k * 0.25)
timer_slots = st.integers(0, 2)

timer_ops = st.one_of(
    st.tuples(st.just("schedule"), timer_slots, grid_delays),
    st.tuples(st.just("reschedule"), timer_slots, grid_delays),
    st.tuples(st.just("reschedule_other_fn"), timer_slots, grid_delays),
    st.tuples(st.just("cancel"), timer_slots),
    st.tuples(st.just("noise"), grid_delays),
    # the real usage: re-arm / stop from inside a callback, mid-run
    st.tuples(st.just("rearm_later"), grid_delays, timer_slots, grid_delays),
    st.tuples(st.just("stop_later"), grid_delays, timer_slots),
    st.tuples(st.just("run_until"), grid_delays),
    st.tuples(st.just("run_events"), st.integers(1, 4)),
)


class TimerProgram:
    """Interprets a random op list against one engine, logging everything
    a caller could observe after each step."""

    def __init__(self, engine):
        self.sim = engine(seed=0)
        self.timers = [None, None, None]
        self.fired = []
        self.observed = []

    def hit(self, tag):
        self.fired.append((self.sim.now, "hit", tag))

    def alt(self, tag):
        self.fired.append((self.sim.now, "alt", tag))

    def rearm(self, slot, delay, tag):
        self.fired.append((self.sim.now, "rearm", tag))
        self.timers[slot] = self.sim.reschedule(
            self.timers[slot], delay, self.hit, tag)

    def stop(self, slot, tag):
        self.fired.append((self.sim.now, "stop", tag))
        self.sim.cancel(self.timers[slot])

    def step(self, tag, op):
        sim, timers = self.sim, self.timers
        kind = op[0]
        if kind == "schedule":
            timers[op[1]] = sim.schedule(op[2], self.hit, tag)
        elif kind == "reschedule":
            timers[op[1]] = sim.reschedule(timers[op[1]], op[2], self.hit, tag)
        elif kind == "reschedule_other_fn":
            timers[op[1]] = sim.reschedule(timers[op[1]], op[2], self.alt, tag)
        elif kind == "cancel":
            sim.cancel(timers[op[1]])
        elif kind == "noise":
            sim.schedule_fire1(op[1], self.hit, tag)
        elif kind == "rearm_later":
            sim.schedule_fire(op[1], self.rearm, op[2], op[3], tag)
        elif kind == "stop_later":
            sim.schedule_fire(op[1], self.stop, op[2], tag)
        elif kind == "run_until":
            sim.run(until=sim.now + op[1])
        else:
            sim.run(max_events=op[1])
        self.observe()

    def observe(self):
        sim = self.sim
        self.observed.append((
            sim.now, sim._seq, sim.pending(), sim.events_processed,
            len(self.fired),
            [None if t is None else (t.time, t.seq, t.cancelled, t.fired)
             for t in self.timers],
            # the canonical event list
            [(e[0], e[1], e[2].__name__, e[3]) for e in sorted(sim.live_entries())],
        ))

    def execute(self, ops):
        for tag, op in enumerate(ops):
            self.step(tag, op)
        self.sim.run()
        self.observe()
        return self.fired, self.observed


@pytest.mark.parametrize("engine", [ArraySimulator])
@given(ops=st.lists(timer_ops, min_size=1, max_size=40))
@settings(max_examples=150)
def test_reschedule_matches_cancel_plus_schedule(engine, ops):
    """Fired trace, clock, counters, handles and canonical event list
    agree with the oracle after every op of a random program."""
    want_fired, want_observed = TimerProgram(LegacySimulator).execute(ops)
    got_fired, got_observed = TimerProgram(engine).execute(ops)
    assert got_fired == want_fired
    for i, (got, want) in enumerate(zip(got_observed, want_observed)):
        assert got == want, f"diverged after op {i}: {ops[:i + 1][-1]}"


def test_pert_dumbbell_heap_carries_no_dead_timer_per_ack(monkeypatch):
    """Regression: 50 PERT flows hold at most one cancelled heap entry
    each (the two-call re-arm held ~1 200 of 1 630 entries).

    While a flow's first RTT sample is fresh there is one more: the
    INITIAL_RTO entry its first re-arm had to abandon (the deadline moved
    *earlier*), which dies INITIAL_RTO after the flow started.
    """
    from repro.experiments.common import run_dumbbell
    from repro.tcp.base import INITIAL_RTO

    n_flows, start_window = 50, 0.5
    worst = {"startup": 0, "steady": 0}
    pure_run = ArraySimulator.run

    def sampling_run(self, until=None, max_events=None):
        # chop every run(until=...) into 50 ms slices and census the heap
        t = self.now
        while t < until:
            t = min(until, t + 0.05)
            pure_run(self, t, max_events)
            queue = [e for e in (self._next, *self._heap) if e is not None]
            dead = sum(1 for e in queue
                       if len(e) == 5 and e[4] is not None and e[4].cancelled)
            assert dead == self._dead == len(queue) - self.pending()
            phase = "steady" if t > start_window + INITIAL_RTO else "startup"
            worst[phase] = max(worst[phase], dead)

    monkeypatch.setattr(ArraySimulator, "run", sampling_run)
    result = run_dumbbell("pert", bandwidth=20e6, rtt=0.06, n_fwd=n_flows,
                          duration=5.0, warmup=1.0, start_window=start_window,
                          seed=2, collector=False)
    assert result.events_processed > 100_000
    assert worst["startup"] <= 2 * n_flows
    assert worst["steady"] <= n_flows
