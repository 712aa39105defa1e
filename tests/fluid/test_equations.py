"""The fluid models' equations stepped in the kernel, against their rhs.

``FluidModel.simulate`` hands the scalar kernel the model's equations
block (``repro.fluid.model.equations``); the kernel steps the
statements where it would call an rhs, and runs the block's delayed half
once per delayed row.  ``FluidModel.dynamics`` compiles the same block
into the rhs that ``integrate_dde_floats`` calls per stage.  Guards:

* the two paths are equal byte for byte over every registered model ×
  ``clamp`` × ``approximate_self_delay`` × ``n_of_t`` × RK4/Euler ×
  lags below the step, off the grid and past the whole run, from a
  start that trips every clamp and from the model's own;
* the counts the block path exists for: no rhs frame per stage, and a
  curve's law twice per RK4 step where the lag is at least the step
  (four times through the rhs);
* one compiled kernel per model shape.
"""

import math
import sys
from collections import Counter

import pytest

from repro.fluid import FLUID_MODELS, dde, make_fluid_model
from repro.fluid.dde import integrate_dde_floats
from repro.fluid.model import equations
from repro.laws import LinearRamp

DT = 1e-3
DURATION = 0.3
#: below the step, not a multiple of it, past the whole run
LAGS = (4e-4, 0.0537, 2.0)
#: W < 0, q = 0 and the law's state past [0, 1]: every clamp engages
FAR_START = (-0.5, 0.0, 5.0)


def shaped(name, clamp, approx, varying, rtt):
    model = make_fluid_model(name, rtt=rtt, clamp=clamp)
    model.approximate_self_delay = approx
    if varying:
        model.n_of_t = lambda t: 5.0 + 3.0 * math.sin(40.0 * t)
    return model


@pytest.mark.parametrize("start", [None, FAR_START], ids=["x0", "far"])
@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("rtt", LAGS)
@pytest.mark.parametrize("varying", [False, True], ids=["n", "n_of_t"])
@pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
@pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamp"])
@pytest.mark.parametrize("name", sorted(FLUID_MODELS))
def test_simulate_equals_the_rhs_path(name, clamp, approx, varying, rtt,
                                      method, start):
    model = shaped(name, clamp, approx, varying, rtt)
    x0 = model.x0_default if start is None else start
    stepped = model.simulate(DURATION, dt=DT, x0=x0, method=method)
    called = integrate_dde_floats(model.dynamics(), x0, (0.0, DURATION), DT,
                                  method=method, lag=rtt)
    assert stepped.t.tobytes() == called.t.tobytes()
    assert stepped.y.tobytes() == called.y.tobytes()


def test_clamps_change_the_far_start():
    """From the far start the property above compares clamped runs that
    differ from the free ones."""
    for name in FLUID_MODELS:
        free, held = (shaped(name, clamp, False, False, 0.0537).simulate(
            DURATION, dt=DT, x0=FAR_START) for clamp in (False, True))
        assert free.y.tobytes() != held.y.tobytes()


# ----------------------------------------------------------------------
# what the block path saves, counted
# ----------------------------------------------------------------------
def frames_and_law_calls(monkeypatch, run):
    """``(rhs frames, probability calls)`` while *run*."""
    calls = Counter()
    probability = LinearRamp.probability

    def counting(self, signal):
        calls["probability"] += 1
        return probability(self, signal)

    monkeypatch.setattr(LinearRamp, "probability", counting)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "rhs":
            calls["rhs"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls["rhs"], calls["probability"]


@pytest.mark.parametrize("name", ["pert_red", "tcp_red"])
def test_rk4_step_counts_for_a_curve(monkeypatch, name):
    model = make_fluid_model(name, rtt=0.1)
    n_steps = 500
    span = (0.0, n_steps * DT)
    frames, law = frames_and_law_calls(
        monkeypatch, lambda: model.simulate(span[1], dt=DT))
    # no rhs frame; the law once before the loop, then at k2 and k4
    assert (frames, law) == (0, 1 + 2 * n_steps)
    frames, law = frames_and_law_calls(monkeypatch, lambda: integrate_dde_floats(
        model.dynamics(), model.x0_default, span, DT, lag=model.rtt))
    assert (frames, law) == (4 * n_steps, 4 * n_steps)


def test_rk4_step_counts_for_a_controller(monkeypatch):
    model = make_fluid_model("pert_pi")
    frames, _ = frames_and_law_calls(monkeypatch,
                                     lambda: model.simulate(500 * DT, dt=DT))
    assert frames == 0


def test_a_lag_below_the_step_looks_again_at_k1(monkeypatch):
    """k4's row is end-clamped, so each k1 plans and evaluates anew."""
    model = make_fluid_model("pert_red", rtt=4e-4)
    n_steps = 200
    _, law = frames_and_law_calls(
        monkeypatch, lambda: model.simulate(n_steps * DT, dt=DT))
    assert law == 1 + 3 * (n_steps - 1) + 2


# ----------------------------------------------------------------------
# one kernel per shape
# ----------------------------------------------------------------------
def test_one_block_per_shape():
    blocks = {name: make_fluid_model(name)._bound_equations()[0]
              for name in FLUID_MODELS}
    # tcp_red is pert_red's shape over another signal: one kernel for both
    assert blocks["tcp_red"] is blocks["pert_red"]
    assert blocks["pert_pi"] is not blocks["pert_red"]
    assert blocks["pert_red"] is equations(False, False, False, False)


def test_kernel_compiled_once_per_shape():
    model = make_fluid_model("pert_red", rtt=0.0731)
    model.simulate(0.01)
    before = dde._float_kernel.cache_info()
    for rtt in (0.05, 0.171):
        make_fluid_model("tcp_red", rtt=rtt).simulate(0.01)
    after = dde._float_kernel.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2


def test_x0_of_the_wrong_length_is_named():
    with pytest.raises(ValueError, match="x0 has 2 components"):
        make_fluid_model("pert_red").simulate(0.1, x0=(1.0, 1.0))
