"""BackgroundLoad spec handling and the injector's rate fidelity."""

import math

import numpy as np
import pytest

from repro.experiments.common import run_dumbbell
from repro.fluid import RateSegment, make_fluid_model
from repro.hybrid import BackgroundLoad

#: numpy >= 2.0 has ``trapezoid``, 1.x only ``trapz`` (see fluid/rates.py)
trapezoid = getattr(np, "trapezoid", None) or np.trapz

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
                          aggregate=3, arrival="paced",
                          params={"tq_ref": 0.004})
    assert BackgroundLoad(**load.canonical()) == load


def test_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        BackgroundLoad(model="pert_red", share=1.0)  # share must be < 1
    with pytest.raises(ValueError):
        BackgroundLoad(model="pert_red", share=-0.1)
    with pytest.raises(ValueError):
        BackgroundLoad(model="pert_red", share=0.5, aggregate=0)
    with pytest.raises(ValueError):
        BackgroundLoad(model="pert_red", share=0.5, arrival="bursty")
    with pytest.raises(ValueError):
        BackgroundLoad(model="no_such_model", share=0.5)
    with pytest.raises(ValueError):
        # fluid params are validated eagerly, not at attach time
        BackgroundLoad(model="pert_red", share=0.5,
                       params={"not_a_param": 1.0})


def test_paced_injection_hits_fluid_rate():
    """Paced macro-packets reproduce the settled fluid rate exactly."""
    share = 0.5
    bg = {"model": "pert_red", "share": share, "n_flows": 20}
    result = run_dumbbell("pert", BW, background=bg, **KW)
    # poisson default: offered macro count concentrates on rate*duration
    pkt_rate = BW / (8.0 * 1000)
    expected = share * pkt_rate * KW["duration"]
    offered = result.extras["background_offered_pkts"]
    assert offered == pytest.approx(expected, rel=0.15)
    assert result.background_model == "pert_red"
    assert result.background_share == share


def test_paced_arrival_is_deterministic_macro_count():
    bg = {"model": "pert_red", "share": 0.5, "n_flows": 20,
          "arrival": "paced", "aggregate": 5}
    r = run_dumbbell("pert", BW, background=bg, **KW)
    pkt_rate = BW / (8.0 * 1000)
    macro_rate = 0.5 * pkt_rate / 5
    expected_macros = macro_rate * KW["duration"]
    # offered counts fluid packets (macros * aggregate)
    assert r.extras["background_offered_pkts"] == pytest.approx(
        expected_macros * 5, rel=0.02)


def test_background_runs_are_deterministic():
    bg = {"model": "pert_red", "share": 0.4, "n_flows": 10}
    a = run_dumbbell("pert", BW, background=bg, **KW)
    b = run_dumbbell("pert", BW, background=bg, **KW)
    assert a == b


def test_segments_preserve_trajectory_volume():
    model = make_fluid_model("pert_red", capacity=500.0, n_flows=10,
                             rtt=0.06)
    from repro.fluid import rate_trajectory

    traj = rate_trajectory(model, 8.0, dt=2e-3)
    segs = traj.segments(0.5)
    assert segs[0].start == 0.0
    assert segs[-1].end == pytest.approx(8.0)
    for a, b in zip(segs, segs[1:]):
        assert a.end == pytest.approx(b.start)
    seg_volume = sum((s.end - s.start) * s.rate_pps for s in segs)
    true_volume = float(trapezoid(traj.rate_pps, traj.times))
    assert seg_volume == pytest.approx(true_volume, rel=1e-6)


def test_rate_segment_validation():
    with pytest.raises(ValueError):
        RateSegment(1.0, 0.5, 100.0)
    assert math.isfinite(RateSegment(0.0, 1.0, 100.0).rate_pps)
