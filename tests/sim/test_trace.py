"""Tracing one flow in a bare simulator, and ASCII rendering of the series.

``repro.sim.trace.FlowTracer`` (its own tick event, its own record list)
is gone: a flow's ``cwnd`` / ``ssthresh`` / ``srtt`` series is the
``cwnd_sample`` records a :class:`~repro.obs.collect.Collector` keeps
for an attached sender, taken on the ACK path at most once per sample
interval, and ``ascii_series`` lives in :mod:`repro.metrics.timeseries`
(``examples/cwnd_dynamics.py`` is the usage).
"""

import pytest

from repro.metrics.timeseries import ascii_series
from repro.obs.collect import Collector
from repro.obs.records import select, validate_record
from repro.sim.engine import Simulator

from ..conftest import make_dumbbell, make_flow


def test_tracer_stores_schema_records():
    sim = Simulator(seed=1)
    db = make_dumbbell(sim)
    sender, _ = make_flow(sim, db)
    tracer = Collector(trace=True, sample_interval=1.0)
    tracer.attach_sender(sender)
    sender.start()
    sim.run(until=3.0)
    samples = select(tracer.records, "cwnd_sample")
    assert len(samples) == 3  # the first ACK, then one per second
    for rec in samples:
        validate_record(rec)
        assert rec["flow"] == sender.flow_id
        assert rec["cwnd"] >= 1.0 and rec["ssthresh"] > 0 and rec["srtt"] > 0
    gaps = [b["t"] - a["t"] for a, b in zip(samples, samples[1:])]
    assert min(gaps) >= 1.0


def test_tracer_validation():
    with pytest.raises(ValueError):
        Collector(trace=True, sample_interval=0.0)


def test_ascii_series_shape():
    out = ascii_series([1, 2, 3, 4, 5], width=5, height=4, label="demo")
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert len(lines) == 1 + 5 + 1  # label + (height+1) rows + axis
    assert "*" in out


def test_ascii_series_handles_flat_and_empty():
    assert "no data" in ascii_series([], label="x ")
    out = ascii_series([2.0, 2.0, 2.0])
    assert "*" in out  # flat series still renders
