"""Unit tests for the deterministic metrics primitives."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_increments():
    c = Counter("x")
    c.inc()
    c.inc(3)
    assert c.value == 4
    assert c.snapshot() == 4


def test_gauge_keeps_last_value():
    g = Gauge("x")
    g.set(2.5)
    g.set(1.0)
    assert g.value == 1.0
    assert g.snapshot() == 1.0


def test_histogram_bucket_placement():
    h = Histogram("h", edges=[1.0, 2.0, 4.0])
    for v in (0.5, 1.0, 1.5, 3.0, 10.0):
        h.observe(v)
    snap = h.snapshot()
    # buckets: <=1, <=2, <=4, overflow
    assert snap["counts"] == [2, 1, 1, 1]
    assert snap["count"] == 5
    assert snap["min"] == 0.5 and snap["max"] == 10.0
    assert snap["sum"] == pytest.approx(16.0)


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        Histogram("h", edges=[2.0, 1.0])


def test_empty_histogram_snapshot():
    h = Histogram("h", edges=[1.0])
    snap = h.snapshot()
    assert snap["count"] == 0
    assert snap["sum"] == 0.0


def test_registry_creates_on_first_use_and_reuses():
    reg = MetricsRegistry()
    c1 = reg.counter("a")
    c2 = reg.counter("a")
    assert c1 is c2
    reg.gauge("g").set(1)
    reg.histogram("h", edges=[1, 2])
    assert sorted(reg.snapshot()) == ["a", "g", "h"]


def test_registry_rejects_type_mismatch():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_snapshot_is_deterministic():
    def build():
        reg = MetricsRegistry()
        reg.counter("z").inc(2)
        h = reg.histogram("h", edges=[1.0, 4.0])
        for v in (0.5, 2.0, 9.0):
            h.observe(v)
        reg.gauge("g").set(7)
        return reg.snapshot()

    assert build() == build()
