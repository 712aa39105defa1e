"""Batched DDE integration: bit-identical to per-member scalar runs."""

import math

import numpy as np
import pytest

from repro.fluid import make_fluid_model
from repro.fluid.dde import integrate_dde, integrate_dde_batch
from repro.fluid.pert_red import simulate_batch
from repro.fluid.stability import classify_trajectories, trajectory_is_stable


def _linear_decay_batch(rates):
    rates = np.asarray(rates, dtype=float)

    def rhs(t, x, xd, out):
        np.multiply(-rates, x[0], out=out[0])

    return rhs


def _delayed_decay(t, x, xd, out):
    """x' = -x(t - tau), component by component."""
    for column, delayed in zip(out, xd):
        np.negative(delayed, out=column)


def test_batch_matches_scalar_ode():
    """x' = -k x per member: batch rows equal scalar integrations exactly."""
    rates = [0.5, 1.0, 2.0]
    x0 = np.ones((3, 1))
    batch = integrate_dde_batch(
        _linear_decay_batch(rates), x0, (0.0, 2.0), dt=1e-2
    )
    for b, k in enumerate(rates):
        scalar = integrate_dde(
            lambda t, x, xd, k=k: -k * x, [1.0], (0.0, 2.0), dt=1e-2
        )
        assert np.array_equal(batch.t, scalar.t)
        assert np.array_equal(batch.y[:, b, :], scalar.y)


def test_batch_delayed_term_matches_scalar():
    """x' = -x(t - tau) with per-member delays."""
    taus = np.array([0.3, 0.7, 1.0])
    batch = integrate_dde_batch(_delayed_decay, np.ones((3, 1)),
                                (0.0, 4.0), dt=1e-2, lag=taus)
    for b, tau in enumerate(taus):
        scalar = integrate_dde(
            lambda t, x, xd: -xd, [1.0], (0.0, 4.0), dt=1e-2, lag=tau
        )
        assert np.array_equal(batch.y[:, b, :], scalar.y)


def test_batch_euler_matches_scalar():
    batch = integrate_dde_batch(
        _delayed_decay, np.ones((2, 1)), (0.0, 2.0), dt=1e-2,
        method="euler", lag=0.5
    )
    scalar = integrate_dde(
        lambda t, x, xd: -xd, [1.0], (0.0, 2.0), dt=1e-2, method="euler",
        lag=0.5
    )
    for b in range(2):
        assert np.array_equal(batch.y[:, b, :], scalar.y)


@pytest.mark.parametrize("clamp", [False, True])
def test_pert_red_simulate_batch_bit_identical(clamp):
    """A mixed-parameter PERT/RED sweep equals per-model simulate() runs."""
    models = [
        make_fluid_model("pert_red", rtt=rtt, n_flows=n, clamp=clamp)
        for rtt, n in [(0.08, 5), (0.1, 5), (0.12, 8), (0.17, 5)]
    ]
    batch = simulate_batch(models, duration=5.0, dt=1e-3)
    assert batch.y.shape[1] == len(models)
    for b, model in enumerate(models):
        scalar = model.simulate(5.0, dt=1e-3)
        assert np.array_equal(batch.t, scalar.t)
        assert np.array_equal(batch.y[:, b, :], scalar.y)


def test_batch_solution_indexing_and_components():
    models = [make_fluid_model("pert_red", rtt=r) for r in (0.1, 0.15)]
    batch = simulate_batch(models, duration=2.0, dt=1e-3)
    assert batch.y.shape[1] == 2
    sol0 = batch[0]
    assert np.array_equal(sol0.component(0), batch.component(0)[:, 0])
    # dense-output interpolation works on the sliced member
    mid = float(sol0(1.0)[0])
    assert np.isfinite(mid)


def test_classify_trajectories_matches_scalar_classifier():
    """Vectorised sweep verdicts equal trajectory_is_stable per member."""
    # straddle the Figure 13 stability boundary (~171 ms) so the batch
    # contains both stable and unstable members
    rtts = [0.10, 0.14, 0.18, 0.22]
    models = [make_fluid_model("pert_red", rtt=r, clamp=True) for r in rtts]
    batch = simulate_batch(models, duration=40.0, dt=1e-3)
    verdicts = classify_trajectories(batch)
    assert verdicts.shape == (len(models),)
    expected = [trajectory_is_stable(batch[b]) for b in range(len(models))]
    assert list(verdicts) == expected
    assert verdicts[0] and not verdicts[-1]


def test_simulate_batch_input_validation():
    with pytest.raises(ValueError):
        simulate_batch([], duration=1.0)
    mixed = [make_fluid_model("pert_red", clamp=c) for c in (True, False)]
    with pytest.raises(ValueError):
        simulate_batch(mixed, duration=1.0)
    with_n = make_fluid_model("pert_red", n_of_t=lambda t: 5.0)
    with pytest.raises(ValueError):
        simulate_batch([with_n], duration=1.0)
    with pytest.raises(ValueError):
        simulate_batch(
            [make_fluid_model("pert_red")], duration=1.0, x0=np.ones((3, 3))
        )
    with pytest.raises(ValueError):
        integrate_dde_batch(
            _delayed_decay, np.ones(3), (0.0, 1.0), dt=0.1
        )


@pytest.mark.parametrize("s0", [math.nan, math.inf])
def test_clamped_batch_equals_scalar_on_a_non_finite_signal(s0):
    """A NaN drop probability clamps to 0 in both, as builtin max does."""
    models = [make_fluid_model("pert_red", rtt=rtt, clamp=True)
              for rtt in (0.08, 0.1, 0.17)]
    x0 = (1.0, 1.0, s0)
    with np.errstate(invalid="ignore"):  # inf - inf in the signal's LPF
        batch = simulate_batch(models, duration=3.0, dt=1e-3, x0=x0)
    for b, model in enumerate(models):
        scalar = model.simulate(3.0, dt=1e-3, x0=x0)
        assert np.array_equal(batch.y[:, b, :], scalar.y, equal_nan=True)
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
    """The models' clamps and the batch's, against builtin min/max.

    ``max(a, b)`` is ``b if b > a else a`` and ``min(a, b)`` is
    ``b if b < a else a``: NaN, -0.0 and the infinities included.
    """
    p = min(1.0, max(0.0, v))
    w = max(v, 0.0)
    assert _bits((v if v < 1.0 else 1.0) if v > 0.0 else 0.0) == _bits(p)
    assert _bits(0.0 if v < 0.0 else v) == _bits(w)
    arr = np.array([v])
    batch_p = np.where(arr > 0.0, np.where(arr < 1.0, arr, 1.0), 0.0)
    assert _bits(float(batch_p[0])) == _bits(p)
    assert _bits(float(np.where(arr < 0.0, 0.0, arr)[0])) == _bits(w)
