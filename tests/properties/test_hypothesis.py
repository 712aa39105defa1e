"""Property-based tests (hypothesis) on core data structures/invariants."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.response import GentleRedCurve, PiResponse, RedCurve
from repro.core.srtt import EwmaRtt, MovingAverageRtt
from repro.metrics.fairness import jain_index
from repro.metrics.stats import histogram_pdf
from repro.predictors.analysis import TransitionCounts, coalesce_events
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, RedQueue

rtts = st.floats(min_value=1e-4, max_value=10.0, allow_nan=False)


# ----------------------------------------------------------------------
# response curves
# ----------------------------------------------------------------------
@given(
    t_min=st.floats(min_value=0.0, max_value=0.05),
    span=st.floats(min_value=1e-4, max_value=0.1),
    p_max=st.floats(min_value=1e-3, max_value=1.0),
    qs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40),
)
def test_gentle_curve_bounded_and_monotone(t_min, span, p_max, qs):
    curve = GentleRedCurve(t_min=t_min, t_max=t_min + span, p_max=p_max)
    values = [curve(q) for q in sorted(qs)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@given(
    t_min=st.floats(min_value=0.0, max_value=0.05),
    span=st.floats(min_value=1e-4, max_value=0.1),
    p_max=st.floats(min_value=1e-3, max_value=1.0),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_gentle_at_least_as_gentle_as_red(t_min, span, p_max, q):
    gentle = GentleRedCurve(t_min=t_min, t_max=t_min + span, p_max=p_max)
    red = RedCurve(t_min=t_min, t_max=t_min + span, p_max=p_max)
    assert gentle(q) <= red(q) + 1e-12


@given(qs=st.lists(st.floats(min_value=-0.1, max_value=0.1), min_size=1,
                   max_size=200))
def test_pi_response_always_clamped(qs):
    pi = PiResponse(k=5.0, m=0.1, target_delay=0.01, delta=0.01)
    for q in qs:
        p = pi.update(q)
        assert 0.0 <= p <= 1.0


# ----------------------------------------------------------------------
# smoothed signals
# ----------------------------------------------------------------------
@given(samples=st.lists(rtts, min_size=1, max_size=200),
       weight=st.floats(min_value=0.0, max_value=0.999))
def test_ewma_stays_within_sample_range(samples, weight):
    e = EwmaRtt(weight=weight)
    for s in samples:
        e.update(s)
    assert min(samples) - 1e-12 <= e.value <= max(samples) + 1e-12
    assert e.min_rtt == min(samples)
    assert e.queuing_delay >= 0.0


@given(samples=st.lists(rtts, min_size=1, max_size=100),
       window=st.integers(min_value=1, max_value=20))
def test_moving_average_matches_naive(samples, window):
    m = MovingAverageRtt(window=window)
    for s in samples:
        m.update(s)
    naive = sum(samples[-window:]) / len(samples[-window:])
    assert math.isclose(m.value, naive, rel_tol=1e-9)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
@given(xs=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                   max_size=50))
def test_jain_bounds(xs):
    j = jain_index(xs)
    if sum(xs) == 0:
        assert j == 0.0
    else:
        assert 1.0 / len(xs) - 1e-12 <= j <= 1.0 + 1e-12


@given(xs=st.lists(st.floats(min_value=-2, max_value=3), min_size=1,
                   max_size=200),
       bins=st.integers(min_value=1, max_value=30))
def test_histogram_total_mass_one(xs, bins):
    pdf = histogram_pdf(xs, bins=bins, lo=0.0, hi=1.0)
    assert math.isclose(sum(p for _, p in pdf), 1.0, rel_tol=1e-9)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
@given(times=st.lists(st.floats(min_value=0, max_value=100), max_size=50),
       window=st.floats(min_value=0, max_value=5))
def test_coalesce_spacing_invariant(times, window):
    out = coalesce_events(times, window)
    assert all(b - a > window for a, b in zip(out, out[1:]))
    assert len(out) <= len(times)
    if times:
        assert out[0] == min(times)


# ----------------------------------------------------------------------
# queues
# ----------------------------------------------------------------------
@given(
    capacity=st.integers(min_value=1, max_value=20),
    arrivals=st.lists(st.booleans(), min_size=1, max_size=200),
)
def test_droptail_conservation_property(capacity, arrivals):
    """Random interleavings of enqueue/dequeue preserve accounting."""
    q = DropTailQueue(capacity)
    t = 0.0
    seq = 0
    departed = []
    for do_enqueue in arrivals:
        t += 0.001
        if do_enqueue:
            q.enqueue(Packet(1, 0, 1, size=40 + seq % 3, seq=seq), t)
            seq += 1
        else:
            pkt = q.dequeue(t)
            if pkt is not None:
                departed.append(pkt.size)
        assert 0 <= len(q) <= capacity
        # the derived counters agree with what the test saw move
        assert q.stats.arrivals == seq
        assert q.stats.departures == len(departed)
        assert q.stats.bytes_out == sum(departed)


@given(
    avgs=st.lists(st.floats(min_value=0, max_value=50), min_size=1,
                  max_size=50),
)
def test_red_probability_bounded_for_any_average(avgs):
    q = RedQueue(100, min_th=5, max_th=15, max_p=0.1, w_q=0.1,
                 rng=random.Random(0))
    for a in avgs:
        q.avg = a
        assert 0.0 <= q.mark_probability() <= 1.0


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
@given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                       max_size=100))
@settings(max_examples=50)
def test_engine_processes_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.data())
@settings(max_examples=30)
def test_transition_counts_metrics_consistent(data):
    n2 = data.draw(st.integers(min_value=0, max_value=100))
    n4 = data.draw(st.integers(min_value=0, max_value=100))
    n5 = data.draw(st.integers(min_value=0, max_value=100))
    c = TransitionCounts(n2=n2, n4=n4, n5=n5)
    if n2 + n5:
        assert math.isclose(c.efficiency + c.false_positive_rate, 1.0)
    if n2 + n4:
        assert 0.0 <= c.false_negative_rate <= 1.0
