"""Unit/integration tests for the experiment harness."""

import pytest

from repro.experiments.common import (
    access_delays_for_rtts,
    bdp_packets,
    run_dumbbell,
)
from repro.experiments.report import format_table, format_value
from repro.experiments.scenarios import SCHEMES, get_scheme, scheme_sender_kwargs
from repro.experiments.sweep import result_row, sweep_dumbbell
from repro.runner import ResultCache, dumbbell_spec
from repro.sim.monitors import nearest_sample


def test_bdp_packets():
    # 16 Mbps * 60 ms / 8000 bits = 120 packets
    assert bdp_packets(16e6, 0.060, 1000) == 120
    assert bdp_packets(1e3, 0.001, 1000) == 1  # floor at 1


def test_access_delays_reconstruct_rtt():
    delays = access_delays_for_rtts([0.060, 0.120], bottleneck_delay=0.015)
    for rtt, d in zip([0.060, 0.120], delays):
        assert 2 * (d + 0.015 + d) == pytest.approx(rtt)


def test_access_delays_validation():
    with pytest.raises(ValueError):
        access_delays_for_rtts([0.01], bottleneck_delay=0.02)


def test_get_scheme_unknown():
    with pytest.raises(KeyError):
        get_scheme("cubic")


def test_all_schemes_constructible():
    for name in SCHEMES:
        spec = get_scheme(name)
        kwargs = scheme_sender_kwargs(spec, 10e6, 1000, 10, 0.06)
        assert isinstance(kwargs, dict)


def test_run_dumbbell_basic_metrics():
    r = run_dumbbell("pert", bandwidth=8e6, rtt=0.06, n_fwd=4,
                     duration=20.0, warmup=8.0, seed=1)
    assert 0.0 <= r.norm_queue <= 1.0
    assert 0.0 <= r.drop_rate <= 1.0
    assert 0.0 <= r.utilization <= 1.0
    assert 0.0 <= r.jain <= 1.0
    assert len(r.flow_goodputs_bps) == 4
    assert r.buffer_pkts >= 8
    assert r.early_responses > 0  # PERT actually responded early


def test_run_dumbbell_goodput_consistent_with_utilization():
    r = run_dumbbell("sack-droptail", bandwidth=8e6, rtt=0.06, n_fwd=4,
                     duration=20.0, warmup=8.0, seed=1)
    total = sum(r.flow_goodputs_bps)
    # long-flow goodput can't exceed what the link carried
    assert total <= 8e6 * r.utilization * 1.05


def test_run_dumbbell_heterogeneous_rtts():
    rtts = [0.03, 0.06, 0.09]
    r = run_dumbbell("pert", bandwidth=8e6, n_fwd=3, rtts=rtts,
                     duration=15.0, warmup=6.0, seed=1)
    assert r.rtt == pytest.approx(0.03)  # base RTT = smallest


def test_run_dumbbell_rtts_length_validated():
    with pytest.raises(ValueError):
        run_dumbbell("pert", bandwidth=8e6, n_fwd=3, rtts=[0.06],
                     duration=10.0, warmup=5.0)


def test_run_dumbbell_record_trace_extras():
    r = run_dumbbell("sack-droptail", bandwidth=8e6, n_fwd=3,
                     duration=15.0, warmup=5.0, seed=1, record_rtt_flow=0)
    assert "rtt_trace" in r.extras
    assert "queue_drops" in r.extras
    assert len(r.extras["rtt_trace"]) > 100
    sampler = r.extras["queue_sampler"]
    assert nearest_sample(sampler.times, sampler.lengths, 10.0) >= 0


def test_run_dumbbell_reproducible():
    kw = dict(bandwidth=8e6, n_fwd=3, duration=12.0, warmup=5.0, seed=7)
    a = run_dumbbell("pert", **kw)
    b = run_dumbbell("pert", **kw)
    assert a.norm_queue == b.norm_queue
    assert a.flow_goodputs_bps == b.flow_goodputs_bps


def test_run_dumbbell_seed_changes_results():
    kw = dict(bandwidth=8e6, n_fwd=3, duration=12.0, warmup=5.0)
    a = run_dumbbell("pert", seed=1, **kw)
    b = run_dumbbell("pert", seed=2, **kw)
    assert a.flow_goodputs_bps != b.flow_goodputs_bps


def test_sweep_dumbbell_rows():
    rows = sweep_dumbbell(
        [{"bandwidth": 4e6}, {"bandwidth": 8e6}],
        schemes=("pert", "vegas"),
        n_fwd=3, duration=10.0, warmup=4.0, seed=1,
    )
    assert len(rows) == 4
    assert {r["scheme"] for r in rows} == {"pert", "vegas"}
    assert all("norm_queue" in r for r in rows)


def test_an_older_entry_with_background_fields_is_still_a_hit(tmp_path):
    """Entries written while ``DumbbellResult`` still carried the fluid
    background's ``background_model`` / ``_share`` / ``_pkts`` are served
    as hits: the spec's key is unchanged and a row reads its own fields."""
    point, kw = {"bandwidth": 4e6}, dict(n_fwd=3, duration=10.0, seed=1)
    spec = dumbbell_spec("pert", **kw, **point)
    payload = dict(scheme="pert", norm_queue=0.125, drop_rate=0.0,
                   utilization=0.98, jain=0.99, mean_queue_pkts=5.0,
                   buffer_pkts=40, events_processed=1234,
                   background_model=None, background_share=0.0,
                   background_pkts=0)
    cache = ResultCache(tmp_path)
    cache.put(spec, payload)
    rows = sweep_dumbbell([point], schemes=("pert",), workers=0, cache=cache,
                          **kw)
    assert rows == [result_row(payload, point)]


def test_format_table_alignment_and_values():
    rows = [{"a": 1, "b": 0.123456}, {"a": 20, "b": 1e-6}]
    out = format_table(rows, ["a", "b"], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "0.123" in out and "1.00e-06" in out


def test_format_value():
    assert format_value(0) == "0"
    assert format_value(0.5) == "0.500"
    assert format_value(True) == "True"
    assert format_value("x") == "x"


def test_format_table_empty():
    assert "(no rows)" in format_table([], ["a"])
