"""Differential testing: the engine must agree with its oracle bit for bit.

Every sender scheme in the registry — together spanning all three queue
disciplines (droptail, RED, PI) — runs through the tuple-heap
reference in :mod:`.oracle` (``"legacy"``) and through the product's
one event engine (``"array"``).  The comparison covers three layers:

* the packet-event stream (every enqueue/drop/mark/sample trace record,
  with timestamps, flow ids, sequence numbers and queue lengths),
* the steady-state figure metrics (goodputs, drop/mark rates,
  utilization, Jain index, mean queue),
* snapshot round-trips in both directions (capture under one, restore
  under the other, continue, same result).

Tier selection mirrors the validate suite: the quick tier (default, CI)
runs one scheme per queue discipline on a small workload; set
``REPRO_DIFF_FULL=1`` for the nightly full tier covering every scheme
at the benchmark workload size.
"""

import os

import pytest

from repro.experiments.common import (
    PacketRun,
    _dumbbell_result,
    _measure,
    run_dumbbell,
)
from repro.obs import Collector
from repro.snapshot import capture_bytes, runtime

from .oracle import ENGINES, restore_as, use_engine

FULL = os.environ.get("REPRO_DIFF_FULL", "") not in ("", "0")

#: the engines held to the oracle (one; a tuple so test ids keep naming it)
FAST_ENGINES = ("array",)

#: scheme -> bottleneck queue discipline it exercises
SCHEME_DISCIPLINE = {
    "sack-droptail": "droptail",
    "vegas": "droptail",
    "pert": "droptail",
    "pert-pi": "droptail",
    "sack-red-ecn": "red",
    "sack-pi-ecn": "pi",
}

#: quick tier: one representative scheme per discipline, plus the
#: paper's headline scheme (PERT) — the full tier runs everything
QUICK_SCHEMES = ("pert", "sack-droptail", "sack-red-ecn", "sack-pi-ecn")
SCHEMES = tuple(SCHEME_DISCIPLINE) if FULL else QUICK_SCHEMES

QUICK_KW = dict(bandwidth=3e6, rtt=0.04, n_fwd=3, duration=2.5, warmup=1.0,
                seed=3)
FULL_KW = dict(bandwidth=8e6, rtt=0.05, n_fwd=8, duration=6.0, warmup=2.0,
               seed=2)
KW = FULL_KW if FULL else QUICK_KW


def _run_with_engine(engine, scheme, monkeypatch, trace=True, **overrides):
    """One dumbbell run under *engine* with a full packet-event trace."""
    use_engine(monkeypatch, engine)
    collector = Collector(trace=trace) if trace else False
    kw = dict(KW)
    kw.update(overrides)
    result = run_dumbbell(scheme, collector=collector, keep_refs=True, **kw)
    sim = result.extras["sim"]
    assert type(sim) is ENGINES[engine]
    return result, (collector.records if trace else None)


def _metric_tuple(result):
    return (
        result.events_processed,
        result.mean_queue_pkts,
        result.drop_rate,
        result.mark_rate,
        result.utilization,
        result.jain,
        tuple(result.flow_goodputs_bps),
        result.early_responses,
        result.timeouts,
    )


def _queue_stat_tuple(result):
    stats = result.extras["dumbbell"].bottleneck_queue.stats
    return (stats.arrivals, stats.enqueues, stats.drops, stats.forced_drops,
            stats.early_drops, stats.marks, stats.departures, stats.bytes_in,
            stats.bytes_out)


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_engines_agree(scheme, engine, monkeypatch):
    """Event stream, queue stats and figure metrics match the oracle's."""
    legacy, legacy_records = _run_with_engine("legacy", scheme, monkeypatch)
    fast, fast_records = _run_with_engine(engine, scheme, monkeypatch)

    assert _metric_tuple(legacy) == _metric_tuple(fast)
    assert _queue_stat_tuple(legacy) == _queue_stat_tuple(fast)

    # full packet-event stream: enqueues, drops, marks and periodic
    # samples, in order, with identical timestamps and queue lengths
    assert len(legacy_records) == len(fast_records)
    for i, (a, b) in enumerate(zip(legacy_records, fast_records)):
        assert a == b, f"{scheme}: trace record {i} diverged: {a} vs {b}"

    # drop/mark subsequences called out explicitly (the signals AQM
    # correctness hangs off) — redundant with the full diff above, but
    # a much sharper failure message when something drifts
    for kind in ("drop", "mark"):
        seq_a = [r for r in legacy_records if r["type"] == kind]
        seq_b = [r for r in fast_records if r["type"] == kind]
        assert seq_a == seq_b


@pytest.mark.parametrize("scheme", ("pert", "sack-red-ecn"))
def test_tracing_does_not_perturb(scheme, monkeypatch):
    """A trace collector is passive: metrics match a collector-less run."""
    traced, _ = _run_with_engine("array", scheme, monkeypatch, trace=True)
    bare, _ = _run_with_engine("array", scheme, monkeypatch, trace=False)
    assert _metric_tuple(traced) == _metric_tuple(bare)


@pytest.mark.parametrize("capture_engine,restore_engine",
                         [("legacy", "array"), ("array", "legacy")])
def test_cross_engine_snapshot_roundtrip(capture_engine, restore_engine,
                                         monkeypatch):
    """Checkpoint mid-measure under one engine, restore under the other,
    finish identically."""
    use_engine(monkeypatch, capture_engine)
    slot = _CaptureSlot()
    monkeypatch.setattr(runtime, "_ACTIVE", slot)
    run_dumbbell("pert", collector=False, **KW)
    monkeypatch.setattr(runtime, "_ACTIVE", None)

    # continue the run under the *other* engine
    sim, state = restore_as(slot.body, restore_engine)
    assert type(sim) is ENGINES[restore_engine]
    assert isinstance(state, PacketRun) and state.opened
    assert KW["warmup"] < sim.now < KW["duration"]
    crossed = _dumbbell_result_after_measure(state)

    # reference: the same workload cold, natively under restore_engine
    native, _ = _run_with_engine(restore_engine, "pert", monkeypatch,
                                 trace=False)
    assert _metric_tuple(crossed) == _metric_tuple(native)


class _CaptureSlot(runtime.CheckpointSlot):
    """A checkpoint slot that keeps its latest capture in memory; its
    interval puts the last save of a ``KW`` run inside the measurement."""

    def __init__(self):
        super().__init__("unused.ckpt", (KW["duration"] + KW["warmup"]) / 4)
        self.body = None

    def save(self, sim, state=None):
        self.body = capture_bytes(sim, state)


def _dumbbell_result_after_measure(state):
    _measure(state, None)
    return _dumbbell_result(state)
