"""BackgroundLoad spec handling and the injector's rate fidelity."""

import math

import pytest

from repro.experiments.common import run_dumbbell
from repro.hybrid import BackgroundLoad, BackgroundSource
from repro.sim.engine import Simulator

KW = dict(rtt=0.04, n_fwd=3, duration=4.0, warmup=1.0, seed=3)
BW = 8e6  # 1000 pkts/s at the default 1000-byte packets


def test_from_spec_normalises_none_and_zero_share():
    assert BackgroundLoad.from_spec(None) is None
    # share 0 degenerates to "no background" so the resolved params (and
    # therefore cache keys and goldens) match a background-free run
    assert BackgroundLoad.from_spec({"model": "pert_red", "share": 0.0}) is None
    assert BackgroundLoad.from_spec(
        BackgroundLoad(model="pert_red", share=0.0)) is None


def test_from_spec_passthrough_and_dict():
    load = BackgroundLoad(model="tcp_red", share=0.3, n_flows=7)
    assert BackgroundLoad.from_spec(load) is load
    parsed = BackgroundLoad.from_spec({"model": "tcp_red", "share": 0.3,
                                       "n_flows": 7})
    assert parsed == load


def test_canonical_roundtrips_through_constructor():
    load = BackgroundLoad(model="pert_pi", share=0.4, n_flows=11,
                          params={"tq_ref": 0.004})
    assert BackgroundLoad(**load.canonical()) == load


def test_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        BackgroundLoad(model="pert_red", share=1.0)  # share must be < 1
    with pytest.raises(ValueError):
        BackgroundLoad(model="pert_red", share=-0.1)
    with pytest.raises(ValueError):
        BackgroundLoad(model="no_such_model", share=0.5)
    with pytest.raises(ValueError):
        # fluid params are validated eagerly, not at attach time
        BackgroundLoad(model="pert_red", share=0.5,
                       params={"not_a_param": 1.0})


@pytest.mark.parametrize("field, value", [
    ("n_flows", 2.5), ("n_flows", 0), ("n_flows", True), ("share", math.nan),
])
def test_validation_names_the_bad_field_when_the_spec_is_built(field, value):
    """A bad number fails at construction, naming its field — not inside
    the job, and not by being truncated in ``canonical()``."""
    with pytest.raises(ValueError, match=field):
        BackgroundLoad(**{"model": "pert_red", "share": 0.3, field: value})


def test_source_rejects_a_rate_that_is_not_a_rate():
    sim = Simulator(seed=1)
    for rate in (-1.0, math.nan):
        with pytest.raises(ValueError, match="rate_pps"):
            BackgroundSource(sim, node=None, dst=0, rate_pps=rate)


def test_poisson_injection_hits_fluid_rate():
    """Poisson arrivals inject the settled fluid rate on average."""
    share = 0.5
    bg = {"model": "pert_red", "share": share, "n_flows": 20}
    result = run_dumbbell("pert", BW, background=bg, **KW)
    # the injected count concentrates on rate * duration
    pkt_rate = BW / (8.0 * 1000)
    expected = share * pkt_rate * KW["duration"]
    assert result.background_pkts == pytest.approx(expected, rel=0.15)
    assert result.background_model == "pert_red"
    assert result.background_share == share


def test_background_runs_are_deterministic():
    bg = {"model": "pert_red", "share": 0.4, "n_flows": 10}
    a = run_dumbbell("pert", BW, background=bg, **KW)
    b = run_dumbbell("pert", BW, background=bg, **KW)
    assert a == b

