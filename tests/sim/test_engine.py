"""Unit tests for the discrete-event engine."""

import subprocess
import sys

import pytest

from repro.sim.engine import (
    ArraySimulator,
    Event,
    SimulationError,
    Simulator,
)

from repro.snapshot import sim_summary

from ..differential.oracle import LegacySimulator


def queued(sim):
    """Every queued entry, dead ones included: slot and heap."""
    return sim_summary(sim)["heap_len"]


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(0.3, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.2, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_cancel_skips_event():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    sim.cancel(ev)
    sim.run()
    assert fired == []


def test_cancel_none_is_noop():
    sim = Simulator()
    sim.cancel(None)  # should not raise


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_limit():
    sim = Simulator()

    def loop():
        sim.schedule(0.1, loop)

    sim.schedule(0.0, loop)
    sim.run(max_events=10)
    assert sim.events_processed == 10


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    e1.cancel()
    assert sim.pending() == 1


def test_pending_is_constant_time_counter():
    # pending() must not scan the heap: cancelled events linger there
    # until popped, but the live count reflects them immediately.
    sim = Simulator()
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(100)]
    for ev in events[:60]:
        ev.cancel()
    assert sim.pending() == 40
    assert queued(sim) == 100  # lazy deletion: cancelled entries stay queued


def test_cancel_is_idempotent():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    e1.cancel()  # double cancel must not decrement twice
    assert sim.pending() == 1


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    fired = []
    e1 = sim.schedule(1.0, lambda: fired.append(1))
    e2 = sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert fired == [1]
    assert sim.pending() == 1
    e1.cancel()  # already executed: must not affect the live count
    assert sim.pending() == 1
    e2.cancel()
    assert sim.pending() == 0


def test_pending_drains_to_zero_after_run():
    sim = Simulator()
    for i in range(5):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run()
    assert sim.pending() == 0


def test_streams_are_reproducible_and_independent():
    a1 = Simulator(seed=7).stream("x").random()
    a2 = Simulator(seed=7).stream("x").random()
    b = Simulator(seed=7).stream("y").random()
    c = Simulator(seed=8).stream("x").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_stream_label_collision_rejected():
    sim = Simulator(seed=7)
    sim.stream("starts")
    with pytest.raises(SimulationError):
        sim.stream("starts")  # silently shared streams are a bug


def test_unique_streams_get_deterministic_suffixes():
    sim = Simulator(seed=7)
    r0 = sim.stream("red", unique=True)  # claims bare "red"
    r1 = sim.stream("red", unique=True)  # claims "red#1"
    r2 = sim.stream("red", unique=True)  # claims "red#2"
    ref = Simulator(seed=7)
    assert r0.random() == ref.stream("red").random()
    assert r1.random() == ref.stream("red#1").random()
    assert r2.random() == ref.stream("red#2").random()
    # first unique claim matches the historical bare label, so existing
    # single-instance simulations keep their exact random sequences
    assert r0.random() != r1.random() or r0.random() != r2.random()


def test_unique_stream_skips_explicitly_claimed_labels():
    sim = Simulator(seed=7)
    sim.stream("red")  # explicit bare claim first
    r = sim.stream("red", unique=True)  # must not collide: gets "red#1"
    assert r.random() == Simulator(seed=7).stream("red#1").random()


def test_run_not_reentrant():
    sim = Simulator()
    err = []

    def inner():
        try:
            sim.run()
        except SimulationError:
            err.append(True)

    sim.schedule(0.0, inner)
    sim.run()
    assert err == [True]


def test_nonfinite_delay_rejected():
    sim = Simulator()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_fire(bad, lambda: None)


def test_nonfinite_absolute_time_rejected():
    sim = Simulator()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)


def test_rejected_schedule_corrupts_nothing():
    # A rejected schedule must not consume a sequence number or leave a
    # stale heap entry: ordering afterwards is as if it never happened.
    sim = Simulator()
    fired = []
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), fired.append, "nan")
    sim.schedule(1.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "c")
    sim.run()
    assert fired == ["b", "c"]
    assert sim.pending() == 0


def test_schedule_fire_interleaves_with_schedule():
    # schedule_fire shares the sequence space with schedule(): same-time
    # callbacks fire in schedule order regardless of which API made them.
    sim = Simulator()
    order = []
    sim.schedule(0.5, order.append, 1)
    sim.schedule_fire(0.5, order.append, 2)
    sim.schedule(0.5, order.append, 3)
    sim.run()
    assert order == [1, 2, 3]


def test_cancelled_events_survive_pickle_roundtrip():
    # Regression for snapshot support: cancelled-but-unpopped heap entries
    # must neither fire after a restore nor drift the pending() counter.
    # (Capture purges them; this pins the observable contract either way.)
    import pickle

    sim = Simulator(seed=3)
    rng = sim.stream("ticks")
    keep = sim.schedule(1.0, rng.random)
    dead = sim.schedule(2.0, rng.random)
    late = sim.schedule(3.0, rng.random)
    dead.cancel()
    assert sim.pending() == 2

    blob = pickle.dumps({"sim": sim, "late": late})
    restored = pickle.loads(blob)
    sim2, late2 = restored["sim"], restored["late"]
    assert sim2.pending() == 2
    assert keep is not None

    # an external handle pickled alongside the sim still controls the
    # restored heap entry (pickle memo keeps them the same object)
    late2.cancel()
    assert sim2.pending() == 1
    sim2.run()
    assert sim2.events_processed == 1  # only `keep` fired; no double-fire
    assert sim2.pending() == 0
    assert sim2.now == 1.0

    # the original simulator is untouched by the capture
    sim.run()
    assert sim.events_processed == 2
    assert sim.pending() == 0


# ----------------------------------------------------------------------
# reschedule(): observationally `cancel(event); schedule(delay, fn, *args)`
#
# Every test runs on the engine and on its oracle; the oracle executes the
# two calls literally, so passing on both is the equivalence.  What only
# the in-place engine can show (handle reuse, no dead heap entries) is
# asserted under `in_place`.
# ----------------------------------------------------------------------
ENGINES = [LegacySimulator, ArraySimulator]

engines = pytest.mark.parametrize("engine", ENGINES)


def in_place(engine):
    return engine is not LegacySimulator


class Log:
    """Fire log of ``(now, tag)``; bound methods compare equal across calls."""

    def __init__(self, sim):
        self.sim = sim
        self.hits = []

    def hit(self, tag=None):
        self.hits.append((self.sim.now, tag))

    def other(self, tag=None):
        self.hits.append((self.sim.now, ("other", tag)))


@engines
def test_reschedule_moves_the_timer_and_its_args(engine):
    sim = engine(seed=0)
    log = Log(sim)
    ev = sim.schedule(1.0, log.hit, "old")
    for k in range(5):
        ev2 = sim.reschedule(ev, 2.0 + k, log.hit, k)
        if in_place(engine):
            assert ev2 is ev
        ev = ev2
    assert sim.pending() == 1
    assert (ev.time, ev.seq, ev.args) == (6.0, 5, (4,))
    if in_place(engine):
        assert queued(sim) == 1  # no corpse per re-arm
    sim.run()
    assert log.hits == [(6.0, 4)]
    assert sim.events_processed == 1
    assert sim.now == 6.0
    assert ev.fired and sim.pending() == 0


@engines
def test_reschedule_reserves_a_fresh_seq_for_tie_order(engine):
    sim = engine(seed=0)
    log = Log(sim)
    first = sim.schedule(1.0, log.hit, "first")
    sim.schedule(1.0, log.hit, "second")
    sim.reschedule(first, 1.0, log.hit, "re-armed")  # same instant, newer seq
    sim.run()
    assert [tag for _, tag in log.hits] == ["second", "re-armed"]
    assert sim._seq == 3


@engines
def test_reschedule_to_earlier_deadline_falls_back(engine):
    sim = engine(seed=0)
    log = Log(sim)
    ev = sim.schedule(5.0, log.hit, "late")
    ev2 = sim.reschedule(ev, 1.0, log.hit, "early")
    # the queued entry would wake the engine too late: classic cancel + push
    assert ev2 is not ev and ev.cancelled and not ev2.cancelled
    assert sim.pending() == 1
    sim.run()
    assert log.hits == [(1.0, "early")]
    assert sim.now == 1.0  # the dead entry at t=5 never moves the clock


@engines
def test_reschedule_of_fired_or_missing_handle_is_a_plain_schedule(engine):
    sim = engine(seed=0)
    log = Log(sim)
    ev = sim.schedule(1.0, log.hit, "a")
    sim.run()
    ev2 = sim.reschedule(ev, 1.0, log.hit, "b")
    assert ev2 is not ev and ev.fired and not ev.cancelled
    ev3 = sim.reschedule(None, 2.0, log.hit, "c")
    assert sim.pending() == 2
    sim.run()
    assert log.hits == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
    assert ev2.fired and ev3.fired


@engines
def test_reschedule_with_another_callback_falls_back(engine):
    sim = engine(seed=0)
    log = Log(sim)
    ev = sim.schedule(1.0, log.hit, "x")
    ev2 = sim.reschedule(ev, 2.0, log.other, "y")
    assert ev2 is not ev and ev.cancelled
    sim.run()
    assert log.hits == [(2.0, ("other", "y"))]


@engines
def test_reschedule_revives_a_cancelled_but_queued_handle(engine):
    sim = engine(seed=0)
    log = Log(sim)
    ev = sim.schedule(1.0, log.hit, "x")
    sim.schedule(9.0, log.hit, "end")
    ev.cancel()
    assert sim.pending() == 1
    ev2 = sim.reschedule(ev, 3.0, log.hit, "revived")
    assert sim.pending() == 2
    if in_place(engine):
        assert ev2 is ev and not ev.cancelled
        assert queued(sim) == 2
    sim.run()
    assert log.hits == [(3.0, "revived"), (9.0, "end")]
    assert sim.events_processed == 2


@engines
def test_reschedule_of_a_cancelled_handle_whose_entry_is_gone(engine):
    sim = engine(seed=0)
    log = Log(sim)
    ev = sim.schedule(5.0, log.hit, "x")
    ev.cancel()
    sim.run(until=1.0)  # pops and discards the dead entry beyond the horizon
    ev2 = sim.reschedule(ev, 6.0, log.hit, "again")
    assert sim.pending() == 1
    sim.run()
    assert log.hits == [(7.0, "again")]
    assert ev2.fired


@engines
def test_stale_wakeup_beyond_horizon_is_rekeyed_not_dispatched(engine):
    sim = engine(seed=0)
    log = Log(sim)
    ev = sim.schedule(5.0, log.hit, "x")
    ev = sim.reschedule(ev, 8.0, log.hit, "y")
    sim.run(until=3.0)  # the wake-up at t=5 lies beyond the horizon
    assert (log.hits, sim.now, sim.events_processed) == ([], 3.0, 0)
    sim.run(until=6.0)  # ... and within it: still not the deadline
    assert (log.hits, sim.now, sim.events_processed) == ([], 6.0, 0)
    assert sim.pending() == 1
    assert [(e[0], e[1]) for e in sim.live_entries()] == [(8.0, 1)]
    sim.run()
    assert log.hits == [(8.0, "y")]


@engines
def test_run_ending_on_wakeups_leaves_now_at_last_real_event(engine):
    sim = engine(seed=0)
    log = Log(sim)
    timer = [sim.schedule(2.0, log.hit, "timer")]

    def push_back():
        timer[0] = sim.reschedule(timer[0], 4.0, log.hit, "timer")  # deadline 5.0

    def stop():
        timer[0].cancel()

    sim.schedule(1.0, push_back)
    sim.schedule(3.0, stop)
    sim.run()
    # the wake-up at t=2 and the re-keyed entry at t=5 are both silent
    assert log.hits == []
    assert sim.now == 3.0
    assert sim.events_processed == 2
    assert sim.pending() == 0


@engines
def test_wakeups_are_invisible_to_budgets_and_profilers(engine):
    class Profiler:
        def __init__(self):
            self.seen = []

        def dispatch(self, fn, args):
            self.seen.append(fn.__name__)
            fn(*args)

    sim = engine(seed=0)
    log = Log(sim)
    timer = sim.schedule(1.0, log.hit, "timer")

    def push_back():
        sim.reschedule(timer, 1.5, log.hit, "timer")  # deadline 2.0

    sim.schedule(0.5, push_back)
    sim.profiler = prof = Profiler()
    sim.run(max_events=1)
    assert sim.events_processed == 1 and sim.now == 0.5
    sim.run(max_events=1)  # the wake-up at t=1 must not eat the budget
    assert log.hits == [(2.0, "timer")]
    assert sim.events_processed == 2
    assert prof.seen == ["push_back", "hit"]


@engines
def test_reschedule_rejects_nonfinite_delay_like_the_two_calls(engine):
    for bad in (float("nan"), float("inf"), -1.0):
        sim = engine(seed=0)
        log = Log(sim)
        ev = sim.schedule(1.0, log.hit)
        with pytest.raises(SimulationError):
            sim.reschedule(ev, bad, log.hit)
        # cancel() ran, schedule() raised: nothing pending, no seq consumed
        assert ev.cancelled and sim.pending() == 0 and sim._seq == 1
        sim.run()
        assert log.hits == []


@engines
def test_budget_ending_a_run_does_not_park_now_at_until(engine):
    sim = engine(seed=0)
    fired = []
    for t in range(1, 11):
        sim.schedule(float(t), fired.append, t)
    sim.run(until=8.0, max_events=3)
    assert (sim.now, sim.pending()) == (3.0, 7)  # not 8.0: t=4..8 are live
    sim.schedule(0.5, fired.append, 3.5)  # keyed off the right `now`
    sim.run(until=8.0)
    assert fired == [1, 2, 3, 3.5, 4, 5, 6, 7, 8]
    assert sim.now == 8.0


@engines
@pytest.mark.parametrize("until", [None, 2.0, 9.0])
def test_zero_budget_dispatches_nothing(engine, until):
    sim = engine(seed=0)
    fired = []
    for t in range(1, 6):
        sim.schedule_fire1(float(t), fired.append, t)
    sim.run(until=1.5)
    sim.run(until=until, max_events=0)
    assert (fired, sim.now, sim.events_processed, sim.pending()) == ([1], 1.5, 1, 4)
    sim.run()
    assert fired == [1, 2, 3, 4, 5]


@engines
@pytest.mark.parametrize("args", [dict(max_events=-1), dict(max_events=-5),
                                  dict(until=float("nan")),
                                  dict(until=float("nan"), max_events=3)])
def test_run_rejects_a_negative_budget_and_a_nan_horizon(engine, args):
    sim = engine(seed=0)
    fired = []
    for t in range(1, 6):
        sim.schedule_fire1(float(t), fired.append, t)
    with pytest.raises(SimulationError):
        sim.run(**args)
    assert (fired, sim.now, sim.events_processed, sim.pending()) == ([], 0.0, 0, 5)
    sim.run()  # the refusal left the simulator runnable
    assert fired == [1, 2, 3, 4, 5]


def test_event_state_without_the_entry_slot_still_loads():
    # what a snapshot written before `_qtime` existed holds for an Event
    slots = dict(time=2.0, seq=7, fn=len, args=(), cancelled=False,
                 fired=False, _sim=None)
    live = Event.__new__(Event)
    live.__setstate__((None, slots))
    assert live._qtime == 2.0
    dead = Event.__new__(Event)
    dead.__setstate__((None, dict(slots, cancelled=True)))
    assert dead._qtime == float("inf")  # its entry was purged at capture
    # and the slot never rides in new snapshots either
    assert "_qtime" not in live.__getstate__()[1]


def test_the_engine_is_one_class_and_imports_no_compiled_package():
    assert Simulator is ArraySimulator
    assert Simulator.__mro__ == (ArraySimulator, object)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.sim.engine; "
         "print([m for m in sys.modules if m.startswith('repro.compiled')])"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
