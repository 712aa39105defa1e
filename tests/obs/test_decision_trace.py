"""Tests that read a trace and nothing else.

A ``REPRO_TRACE=1`` job leaves a ``.trace.jsonl`` next to its cache
entry; everything below is checked on the records read back from that
file (plus the job's payload, for the totals) — no sender, queue or
sampler is touched (the last test is the exception: it holds the
``loss`` / ``timeout`` records to the senders' own counters).  PERT's per-ACK decision — smoothed RTT, queuing
delay estimate, law output, and each response with the window before and
after — is in the standard trace, so the paper's rules can be held to a
finished run: the seed of "invariants callable on a trace".
"""

from __future__ import annotations

import pytest

from repro.core.config import PertConfig
from repro.experiments.common import run_dumbbell
from repro.obs.collect import Collector
from repro.obs.records import select
from repro.obs.trace import read_trace
from repro.runner import ResultCache, dumbbell_spec, run_jobs

KW = dict(bandwidth=5e6, n_fwd=4, duration=8.0, warmup=3.0, seed=7)
INTERVAL = 0.1  # the default REPRO_OBS_INTERVAL


@pytest.fixture(scope="module")
def pert_job(tmp_path_factory):
    """(payload, trace records) of one traced ``pert`` dumbbell job."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TRACE", "1")
        cache = ResultCache(tmp_path_factory.mktemp("traced"))
        spec = dumbbell_spec("pert", **KW)
        res = run_jobs([spec], workers=0, cache=cache)[0]
    assert res.ok
    return res.value, read_trace(cache.trace_path_for(spec))


def _by_flow(records):
    flows = {}
    for r in records:
        flows.setdefault(r["flow"], []).append(r)
    return flows


def test_every_counted_response_is_on_the_record(pert_job):
    payload, trace = pert_job
    responses = select(trace, "early_response")
    assert len(responses) == payload["early_responses"] > 0
    for r in responses:
        assert None not in (r["srtt"], r["signal"], r["p"])
        assert r["cwnd_after"] == max(2.0, r["cwnd"] * 0.65) < r["cwnd"]
        assert 0.0 < r["p"] <= 1.0 and r["signal"] > 0.0


def test_at_most_one_early_response_per_rtt(pert_job):
    """The paper's once-per-RTT rule, from the trace alone: consecutive
    responses of a flow are at least ``min_response_interval_rtts``
    smoothed RTTs apart.  The RTT is the *later* record's — the sender
    gates on the ``srtt`` it holds when it decides, and a response drains
    the queue, so the earlier record's (larger) ``srtt`` is not a bound
    the implementation promises."""
    spacing = PertConfig().min_response_interval_rtts
    checked = 0
    for flow, responses in _by_flow(select(pert_job[1], "early_response")).items():
        for earlier, later in zip(responses, responses[1:]):
            assert later["t"] - earlier["t"] >= spacing * later["srtt"], flow
            checked += 1
    assert checked > 0


def test_the_end_host_evaluated_the_law_library(pert_job):
    """``p`` on every ``signal`` and ``early_response`` record is the
    gentle-RED curve of the default config at that record's ``signal``,
    to the bit."""
    curve = PertConfig().law()
    decisions = select(pert_job[1], "signal", "early_response")
    assert any(r["p"] > 0 for r in decisions)
    for r in decisions:
        assert r["p"].hex() == curve.probability(r["signal"]).hex()
        assert r["signal"] <= r["srtt"]


def test_every_flow_signals_on_the_sample_clock(pert_job):
    signals = _by_flow(select(pert_job[1], "signal"))
    assert sorted(signals) == list(range(KW["n_fwd"]))
    for flow, recs in signals.items():
        gaps = [b["t"] - a["t"] for a, b in zip(recs, recs[1:])]
        assert min(gaps) >= INTERVAL, flow
        assert len(recs) > (KW["duration"] - KW["warmup"]) / INTERVAL / 2
    assert not select(pert_job[1], "rtt_sample")  # nobody was tagged


def test_loss_and_timeout_records_are_the_senders_counts():
    """``sack-droptail``: every fast-retransmit entry is a ``loss`` record
    and every RTO a ``timeout`` record, per flow."""
    col = Collector(trace=True, trace_packet_events=False)
    result = run_dumbbell("sack-droptail", collector=col, keep_refs=True, **KW)
    senders = [s for s, _ in result.extras["fwd_flows"]]
    assert sum(s.fast_recoveries for s in senders) > 0
    for s in senders:
        assert len(select(col.records, "loss", flow=s.flow_id)) == s.fast_recoveries
        assert len(select(col.records, "timeout", flow=s.flow_id)) == s.timeouts
    assert len(select(col.records, "timeout")) == result.timeouts
    assert not select(col.records, "signal", "early_response")
