"""``simulate_batch``: many models on one grid, each its own scalar run.

A batch steps every member's own equations on the one kernel, writing
into one buffer; so member *b* equals ``models[b].simulate()`` bit for
bit, whatever its shape, RTT or start.
"""

import math

import numpy as np
import pytest

from repro.fluid import make_fluid_model
from repro.fluid.model import PertRed, simulate_batch

#: one model of every registered shape, with mixed RTTs
SHAPES = [
    ("pert_red", dict(rtt=0.08)),
    ("pert_red", dict(rtt=0.17, clamp=True)),
    ("tcp_red", dict(rtt=0.12)),
    ("pert_pi", dict(rtt=0.1)),
]


def _members(batch, models):
    for b, model in enumerate(models):
        yield batch.y[:, b], model


def _is_each_own_simulate(method):
    models = [make_fluid_model(name, **kw) for name, kw in SHAPES]
    batch = simulate_batch(models, duration=3.0, dt=1e-3, method=method)
    assert batch.y.shape == (len(batch.t), len(models), 3)
    for y, model in _members(batch, models):
        scalar = model.simulate(3.0, dt=1e-3, method=method)
        assert np.array_equal(batch.t, scalar.t)
        assert y.tobytes() == scalar.y.tobytes()


def test_every_registered_shape_is_its_own_simulate():
    _is_each_own_simulate("rk4")


def test_batch_euler_matches_scalar():
    _is_each_own_simulate("euler")


@pytest.mark.parametrize("clamp", [False, True])
def test_pert_red_simulate_batch_bit_identical(clamp):
    """A mixed-parameter PERT/RED sweep equals per-model simulate() runs."""
    models = [
        make_fluid_model("pert_red", rtt=rtt, n_flows=n, clamp=clamp)
        for rtt, n in [(0.08, 5), (0.1, 5), (0.12, 8), (0.17, 5)]
    ]
    batch = simulate_batch(models, duration=5.0, dt=1e-3)
    assert batch.y.shape[1] == len(models)
    for y, model in _members(batch, models):
        scalar = model.simulate(5.0, dt=1e-3)
        assert np.array_equal(batch.t, scalar.t)
        assert np.array_equal(y, scalar.y)


def test_batch_delayed_term_matches_scalar():
    """Each member's own delayed term: its RTT, and W(t) in place of
    W(t-R), a clamp or N(t) mixed in one batch."""
    models = [
        make_fluid_model("pert_red", rtt=0.1, clamp=True),
        make_fluid_model("pert_red", rtt=0.13, approximate_self_delay=True),
        make_fluid_model("pert_red", rtt=0.09,
                         n_of_t=lambda t: 5.0 if t < 1.0 else 8.0),
    ]
    batch = simulate_batch(models, duration=3.0, dt=1e-3)
    for y, model in _members(batch, models):
        assert np.array_equal(y, model.simulate(3.0, dt=1e-3).y)


def test_shared_and_per_member_starts():
    """One ``(dim,)`` start for all, or a ``(B, dim)`` row per member;
    by default each member starts at its own ``x0_default``."""
    models = [make_fluid_model(name, **kw) for name, kw in SHAPES]
    shared = simulate_batch(models, 1.0, x0=(2.0, 0.01, 0.02))
    rows = np.linspace(0.5, 2.0, 3 * len(models)).reshape(len(models), 3)
    own = simulate_batch(models, 1.0, x0=rows)
    default = simulate_batch(models, 1.0)
    for b, model in enumerate(models):
        assert np.array_equal(shared.y[:, b],
                              model.simulate(1.0, x0=(2.0, 0.01, 0.02)).y)
        assert np.array_equal(own.y[:, b], model.simulate(1.0, x0=rows[b]).y)
        assert np.array_equal(default.y[:, b], model.simulate(1.0).y)
    assert tuple(default.y[0, -1]) == models[-1].x0_default


def test_batch_solution_indexing_and_components():
    models = [make_fluid_model("pert_red", rtt=r) for r in (0.1, 0.15)]
    batch = simulate_batch(models, duration=2.0, dt=1e-3)
    assert batch.y.shape[1] == 2
    assert np.array_equal(batch.component(0)[:, 1], batch.y[:, 1, 0])
    # dense-output interpolation gives every member at once
    mid = batch(1.0)
    assert mid.shape == (2, 3)
    assert np.array_equal(mid[0], models[0].simulate(2.0)(1.0))


def test_simulate_batch_input_validation():
    """Each refusal names its cause."""
    with pytest.raises(ValueError, match="at least one model"):
        simulate_batch([], duration=1.0)
    model = make_fluid_model("pert_red")
    with pytest.raises(ValueError, match=r"x0 has shape \(3, 3\)"):
        simulate_batch([model], duration=1.0, x0=np.ones((3, 3)))
    with pytest.raises(ValueError, match=r"x0 has shape \(2, 2\)"):
        simulate_batch([model, model], duration=1.0, x0=(1.0, 1.0))
    with pytest.raises(ValueError, match="dt"):
        simulate_batch([model], duration=1.0, dt=0.0)
    with pytest.raises(ValueError, match="t_span"):
        simulate_batch([model], duration=-1.0)


def test_members_of_another_dimension_are_refused_by_name():
    class Wider(PertRed):
        """A curve whose block carries a fourth, idle state component."""

        def _bound_equations(self):
            block, constants = super()._bound_equations()
            return block._replace(name="wider", state=block.state + ("u",),
                                  derivative=block.derivative + ("du",),
                                  stage=block.stage + "\ndu = 0.0"), constants

    with pytest.raises(ValueError, match=r"member 1 \(wider\) has 4 state "
                                         r"components; member 0 has 3"):
        simulate_batch([make_fluid_model("tcp_red"), Wider()], 1.0)


@pytest.mark.parametrize("s0", [math.nan, math.inf])
def test_clamped_batch_equals_scalar_on_a_non_finite_signal(s0):
    """A NaN drop probability clamps to 0 in both, as builtin max does."""
    models = [make_fluid_model("pert_red", rtt=rtt, clamp=True)
              for rtt in (0.08, 0.1, 0.17)]
    x0 = (1.0, 1.0, s0)
    batch = simulate_batch(models, duration=3.0, dt=1e-3, x0=x0)
    for y, model in _members(batch, models):
        scalar = model.simulate(3.0, dt=1e-3, x0=x0)
        assert np.array_equal(y, scalar.y, equal_nan=True)
        assert np.isfinite(scalar.y[-1, 0])


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _bits(v: float) -> tuple:
    """A float up to its NaN payload: equal bits, or both NaN."""
    return (True,) if v != v else (False, v, math.copysign(1.0, v))


@given(st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf,
                                      -math.inf, 1.0, -1.0]))
def test_clamps_are_the_builtins_comparisons(v):
    """The models' clamps against builtin min/max.

    ``max(a, b)`` is ``b if b > a else a`` and ``min(a, b)`` is
    ``b if b < a else a``: NaN, -0.0 and the infinities included.
    """
    p = min(1.0, max(0.0, v))
    w = max(v, 0.0)
    assert _bits((v if v < 1.0 else 1.0) if v > 0.0 else 0.0) == _bits(p)
    assert _bits(0.0 if v < 0.0 else v) == _bits(w)
