"""Shared test fixtures: small topologies and flow helpers."""

from __future__ import annotations

import os

import pytest

from repro.obs.collect import Collector
from repro.obs.records import select
from repro.sim.engine import Simulator
from repro.sim.queues import DropTailQueue
from repro.sim.topology import Dumbbell
from repro.tcp.base import TcpSender, connect_flow

# Hypothesis profiles for the property suites (tests/properties and the
# fluid lookup oracle).  CI runs with ``HYPOTHESIS_PROFILE=ci``: the
# deadline is pinned off so slow shared runners never turn a healthy
# property into a flaky timeout, and the example budget is fixed so run
# time is predictable.  Local runs keep hypothesis defaults.
try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # a test extra: suites that need it skip themselves
    pass
else:
    _hypothesis_settings.register_profile(
        "ci", deadline=None, max_examples=60, print_blob=True)
    _hypothesis_settings.register_profile(
        "nightly", deadline=None, max_examples=400)
    _hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True, scope="session")
def _isolated_runner_env(tmp_path_factory):
    """Keep runner state hermetic: tmp cache dir, no ambient env knobs."""
    saved = {
        k: os.environ.pop(k, None)
        for k in ("REPRO_CACHE_DIR", "REPRO_CACHE", "REPRO_WORKERS",
                  "REPRO_PROGRESS", "REPRO_MP_START",
                  "REPRO_OBS", "REPRO_TRACE", "REPRO_PROFILE",
                  "REPRO_OBS_INTERVAL", "REPRO_CHECKPOINT", "REPRO_FLEET")
    }
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v


@pytest.fixture
def sim():
    return Simulator(seed=42)


def make_dumbbell(
    sim: Simulator,
    n: int = 2,
    bw: float = 8e6,
    delay: float = 0.01,
    buffer_pkts: int = 50,
    qdisc_factory=None,
):
    """Small dumbbell used across TCP/integration tests."""
    factory = qdisc_factory or (lambda: DropTailQueue(capacity_pkts=buffer_pkts))
    return Dumbbell(
        sim,
        n_left=n,
        n_right=n,
        bottleneck_bw=bw,
        bottleneck_delay=delay,
        qdisc_fwd=factory,
        qdisc_rev=factory,
    )


def make_flow(sim, db, idx=0, sender_cls=TcpSender, tagged=False, **kwargs):
    """One flow across the dumbbell; returns (sender, sink).  A *tagged*
    flow is recorded on every ACK (see :func:`tag`)."""
    sender, sink = connect_flow(
        sim, db.left[idx], db.right[idx], flow_id=1000 + idx,
        sender_cls=sender_cls, **kwargs,
    )
    if tagged:
        tag(sender)
    return sender, sink


def tag(sender, **collector_kwargs):
    """Tag *sender* on a tracing collector of its own: every ACK recorded.
    Returns the record list (also reachable as ``sender.obs.records``)."""
    collector = Collector(trace=True, **collector_kwargs)
    collector.attach_sender(sender, every_ack=True)
    return collector.records


def rtt_trace(sender):
    """A tagged sender's ``(time, rtt, cwnd)`` per valid RTT sample."""
    return [(r["t"], r["rtt"], r["cwnd"]) for r in
            select(sender.obs.records, "rtt_sample", flow=sender.flow_id)]


def loss_events(sender):
    """Times a tagged sender detected a loss (fast retransmit or RTO)."""
    return [r["t"] for r in
            select(sender.obs.records, "loss", "timeout", flow=sender.flow_id)]


def signal_trace(sender):
    """A tagged PERT sender's ``(time, srtt, p)`` per ACK."""
    return [(r["t"], r["srtt"], r["p"]) for r in
            select(sender.obs.records, "signal", flow=sender.flow_id)]


def drop_log(qdisc, label="queue"):
    """Record every drop at *qdisc*; returns the record list (the ``drop``
    records, packet ``enqueue`` records left out)."""
    collector = Collector(trace=True, trace_packet_events=False)
    collector.attach_queue(qdisc, label)
    return collector.records


def drop_times(records, flow_id=None):
    """Drop timestamps from :func:`drop_log`, optionally one flow's."""
    match = {} if flow_id is None else {"flow": flow_id}
    return [r["t"] for r in select(records, "drop", **match)]


@pytest.fixture
def dumbbell(sim):
    return make_dumbbell(sim)
