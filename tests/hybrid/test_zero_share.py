"""Zero-background hybrid runs must be bit-identical to pure packet runs.

The hybrid coupling's contract: ``background=None``, a zero-share
background and the historical no-background call are the *same run* —
same resolved params, same event sequence, same result object — under
the engine and under its oracle.  This is what keeps every committed
golden and snapshot valid with the hybrid machinery in the tree.
"""

import pytest

from repro.experiments.common import _resolve_params, run_dumbbell

from ..differential.oracle import ENGINES, use_engine

KW = dict(rtt=0.04, n_fwd=3, duration=2.5, warmup=1.0, seed=3)
BW = 4e6


RESOLVE_DEFAULTS = dict(
    n_rev=0, web_sessions=0, pkt_size=1000, buffer_pkts=None, rtts=None,
    start_window=None, record_rtt_flow=None,
)


def test_zero_share_resolves_to_no_background():
    plain = _resolve_params(scheme="pert", bandwidth=BW,
                            **KW, **RESOLVE_DEFAULTS)
    zero = _resolve_params(scheme="pert", bandwidth=BW,
                           background={"model": "pert_red", "share": 0.0},
                           **KW, **RESOLVE_DEFAULTS)
    assert plain == zero
    assert plain["background"] is None


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_share_run_bit_identical(engine, monkeypatch):
    use_engine(monkeypatch, engine)
    plain = run_dumbbell("pert", BW, **KW)
    zero = run_dumbbell(
        "pert", BW, background={"model": "pert_red", "share": 0.0}, **KW
    )
    assert plain == zero
    assert plain.events_processed == zero.events_processed
    assert zero.background_model is None
    assert zero.background_share == 0.0
    assert zero.background_pkts == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_hybrid_run_agrees_across_engines(engine, monkeypatch):
    """A *non-zero* background is deterministic on engine and oracle."""
    use_engine(monkeypatch, engine)
    bg = {"model": "pert_red", "share": 0.4, "n_flows": 8}
    a = run_dumbbell("pert", BW, background=bg, **KW)
    b = run_dumbbell("pert", BW, background=bg, **KW)
    assert a == b
    assert a.background_pkts > 0


def test_hybrid_metrics_identical_between_engines(monkeypatch):
    bg = {"model": "pert_red", "share": 0.4, "n_flows": 8}
    results = {}
    for engine in ENGINES:
        use_engine(monkeypatch, engine)
        results[engine] = run_dumbbell("pert", BW, background=bg, **KW)
    legacy, array = results["legacy"], results["array"]
    assert legacy.events_processed == array.events_processed
    assert legacy.background_pkts == array.background_pkts
    assert legacy.jain == array.jain
    assert legacy.utilization == array.utilization
    assert legacy.mean_queue_pkts == array.mean_queue_pkts
