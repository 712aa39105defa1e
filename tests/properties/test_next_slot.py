"""The engine's next-event slot against the oracle, which has none.

``ArraySimulator`` keeps at most one entry — strictly earlier than the
whole heap — in ``_next`` and dispatches it without touching the heap;
``LegacySimulator`` (``tests/differential/oracle.py``) pushes and pops
everything.  A random program of schedules, re-arms, cancels, budgeted
and horizon-bounded runs and back-to-back chains must leave both
indistinguishable after every step: the dispatch order, the clock,
``_seq``, ``pending()``, ``events_processed``, the handles and the
canonical event list.

The hand-written programs below pin the states the slot makes special —
a tie with the heap head, a displaced slot entry, a wake-up or a
cancelled entry in the slot, a run stopping with the slot occupied —
and check that the engine really was in them.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ..differential.oracle import ENGINES

#: quarter-second grid: ties with the slot and the heap head are common
grid = st.integers(0, 8).map(lambda k: k * 0.25)
timer = st.integers(0, 1)

ops_strategy = st.lists(st.one_of(
    st.tuples(st.just("fire1"), grid),
    st.tuples(st.just("fire"), grid),
    st.tuples(st.just("tie_head")),
    st.tuples(st.just("schedule"), timer, grid),
    st.tuples(st.just("at"), timer, grid),
    st.tuples(st.just("reschedule"), timer, grid),
    st.tuples(st.just("cancel"), timer),
    st.tuples(st.just("chain"), grid, st.integers(1, 4)),
    st.tuples(st.just("rearm_later"), grid, timer, grid),
    st.tuples(st.just("run_until"), grid),
    st.tuples(st.just("run_events"), st.integers(0, 3)),
), min_size=1, max_size=30)


class SlotProgram:
    """One engine driven by an op list."""

    def __init__(self, engine):
        self.sim = engine(seed=0)
        self.timers = [None, None]
        self.fired = []

    # callbacks ---------------------------------------------------------
    def hit(self, tag):
        self.fired.append((self.sim.now, "hit", tag))

    def pair(self, tag, extra):
        self.fired.append((self.sim.now, "pair", tag, extra))

    def link(self, job):
        """A departure that starts the next back-to-back one."""
        step, left, tag = job
        self.fired.append((self.sim.now, "link", tag, left))
        if left:
            self.sim.schedule_fire1(step, self.link, (step, left - 1, tag))

    def rearm(self, which, delay, tag):
        self.fired.append((self.sim.now, "rearm", tag))
        self.timers[which] = self.sim.reschedule(
            self.timers[which], delay, self.hit, tag)

    # driver ------------------------------------------------------------
    def step(self, tag, op):
        """Apply *op*."""
        sim, timers = self.sim, self.timers
        kind = op[0]
        if kind == "fire1":
            sim.schedule_fire1(op[1], self.hit, tag)
        elif kind == "fire":
            sim.schedule_fire(op[1], self.pair, tag, "x")
        elif kind == "tie_head":
            # exactly the time of the earliest live entry
            live = sim.live_entries()
            delay = min(e[0] for e in live) - sim.now if live else 0.0
            sim.schedule_fire1(delay, self.hit, tag)
        elif kind == "schedule":
            timers[op[1]] = sim.schedule(op[2], self.hit, tag)
        elif kind == "at":
            timers[op[1]] = sim.schedule_at(sim.now + op[2], self.hit, tag)
        elif kind == "reschedule":
            timers[op[1]] = sim.reschedule(timers[op[1]], op[2], self.hit, tag)
        elif kind == "cancel":
            sim.cancel(timers[op[1]])
        elif kind == "chain":
            sim.schedule_fire1(op[1], self.link, (op[1], op[2], tag))
        elif kind == "rearm_later":
            sim.schedule_fire(op[1], self.rearm, op[2], op[3], tag)
        elif kind == "run_until":
            sim.run(until=sim.now + op[1])
        else:
            sim.run(max_events=op[1])

    def observe(self):
        sim = self.sim
        return (
            sim.now, sim._seq, sim.pending(), sim.events_processed,
            list(self.fired),
            [None if t is None else (t.time, t.seq, t.cancelled, t.fired)
             for t in self.timers],
            [(e[0], e[1], e[2].__name__, e[3]) for e in sorted(sim.live_entries())],
        )


def execute(name, ops):
    """Observations after every op and at exhaustion, and the slot's
    ``(time, seq)`` after every op (``None`` when empty)."""
    prog = SlotProgram(ENGINES[name])
    observed, slot = [], []
    for tag, op in enumerate(ops):
        prog.step(tag, op)
        observed.append(prog.observe())
        slot.append(None if prog.sim._next is None else prog.sim._next[:2])
    prog.sim.run()
    observed.append(prog.observe())
    return observed, slot


def twins(ops):
    """Run *ops* on both engines, demand equality, return the slot trace."""
    want, oracle_slot = execute("legacy", ops)
    got, slot = execute("array", ops)
    assert set(oracle_slot) == {None}
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"diverged after op {i}: {(ops + [('end',)])[i]}"
    return slot


@given(ops=ops_strategy)
@settings(max_examples=150)
@example(ops=[("fire1", 0.25), ("fire1", 0.5), ("run_events", 1), ("tie_head",)])
@example(ops=[("fire1", 1.0), ("fire1", 0.5), ("fire", 0.25), ("tie_head",)])
@example(ops=[("schedule", 0, 0.25), ("reschedule", 0, 0.75), ("fire1", 0.5)])
@example(ops=[("schedule", 0, 0.25), ("fire1", 0.5), ("cancel", 0)])
@example(ops=[("chain", 0.25, 4), ("run_events", 2), ("run_events", 1)])
@example(ops=[("fire1", 0.25), ("fire1", 2.0), ("run_until", 1.0)])
def test_slot_is_invisible(ops):
    twins(ops)


# ----------------------------------------------------------------------
# each special state, reached for certain
# ----------------------------------------------------------------------
def test_a_tie_with_the_heap_head_goes_behind_it():
    slot = twins([("fire1", 0.25), ("fire1", 0.5), ("run_events", 1),
                  ("tie_head",), ("run_events", 1)])
    # the slot emptied on dispatch; the tied newcomer (seq 2) went to the
    # heap and fired after the older entry at t=0.5
    assert slot == [(0.25, 0), (0.25, 0), None, None, None]


def test_an_earlier_entry_displaces_the_slot():
    slot = twins([("fire1", 1.0), ("fire1", 0.5), ("fire", 0.25),
                  ("tie_head",)])
    assert slot == [(1.0, 0), (0.5, 1), (0.25, 2), (0.25, 2)]


def test_a_wakeup_in_the_slot_is_rekeyed_not_dispatched():
    slot = twins([("schedule", 0, 0.25), ("reschedule", 0, 0.75),
                  ("fire1", 0.5), ("run_events", 1), ("run_events", 1)])
    # the wake-up keeps its stale key in the slot until it surfaces
    assert slot[:3] == [(0.25, 0), (0.25, 0), (0.25, 0)]
    assert slot[3:] == [None, None]


def test_a_cancelled_entry_in_the_slot_is_dead_until_popped():
    slot = twins([("schedule", 0, 0.25), ("fire1", 0.5), ("cancel", 0),
                  ("reschedule", 0, 1.0), ("cancel", 0), ("run_until", 0.25)])
    assert slot[:5] == [(0.25, 0)] * 5
    # popped as dead; the heap head, beyond the horizon, took the slot
    assert slot[5:] == [(0.5, 1)]


@pytest.mark.parametrize("stop", [("run_events", 2), ("run_until", 0.6)])
def test_a_run_stopping_with_the_slot_occupied_resumes_from_it(stop):
    slot = twins([("chain", 0.25, 4), ("fire1", 2.0), stop, ("run_events", 1)])
    assert slot[2] == (0.75, 3)  # the next link, left in the slot
    assert slot[3] == (1.0, 4)  # dispatched from it; its successor took it
