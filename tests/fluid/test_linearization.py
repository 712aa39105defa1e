"""``FluidModel.linearization()`` against the Jacobian derived by hand.

The model differentiates its own equations (a complex step through the
unclamped block); the pair below is eqs. (3)/(14)/(16) differentiated on
paper, and lives only here.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.fluid import FLUID_MODELS, PertRed, make_fluid_model


def hand_jacobian(model):
    """``(A, B)`` of the unclamped, constant-N model at its equilibrium,
    written out entry by entry."""
    w, p, _ = model.equilibrium()
    r, beta = model.rtt, model.beta_decrease
    a = r * model.capacity if model.signal == "delay" else r
    a11 = -beta * p * w / r
    A, B = np.zeros((3, 3)), np.zeros((3, 3))
    if model.approximate_self_delay:
        A[0, 0] = 2 * a11          # d/dW of W·W
    else:
        A[0, 0] = B[0, 0] = a11
    A[1, 0] = model.n_flows / a
    if hasattr(model.law, "rate"):  # p is the state; p' = k (q' + (q - q*)/m)
        A[0, 2] = -beta * w**2 / r
        A[2, 0] = model.k * model.n_flows / a
        A[2, 1] = model.k / model.m
    else:                           # p = L (s(t-R) - lo); s' = K (s - q)
        B[0, 2] = -beta * model.law.slope * w**2 / r
        A[2, 1] = -model.k_lpf
        A[2, 2] = model.k_lpf
    return A, B


#: every model at its defaults (``pert_pi``'s has ``clamp=True``, which
#: the linearization ignores) and at 171 ms, plus the other shapes
CASES = [(name, {}) for name in FLUID_MODELS] + [
    (name, {"rtt": 0.171}) for name in FLUID_MODELS] + [
    ("pert_red", {"approximate_self_delay": True}),
    ("pert_red", {"approximate_self_delay": True, "rtt": 0.171}),
    ("pert_red", {"beta_decrease": 0.35}),
    ("pert_red", {"capacity": 1000.0, "n_flows": 20, "rtt": 0.3}),
    ("pert_pi", {"k": 0.05, "m": 0.5}),
]


@pytest.mark.parametrize("name, params", CASES)
def test_linearization_is_the_hand_jacobian(name, params):
    model = make_fluid_model(name, **params)
    A, B = model.linearization()
    A_hand, B_hand = hand_jacobian(model)
    scale = max(np.abs(A_hand).max(), np.abs(B_hand).max())
    assert np.abs(A - A_hand).max() <= 1e-15 * scale
    assert np.abs(B - B_hand).max() <= 1e-15 * scale


def test_the_clamp_and_n_of_t_are_not_linearized():
    """The analysis is of the unclamped model at constant N."""
    plain = make_fluid_model("pert_red", rtt=0.171).linearization()
    shaped = make_fluid_model("pert_red", rtt=0.171, clamp=True,
                              n_of_t=lambda t: 1e9).linearization()
    for m_plain, m_shaped in zip(plain, shaped):
        assert (m_plain == m_shaped).all()


class SquareRamp:
    """``p = ((s - lo) / span)²``: a law with no hand Jacobian anywhere."""

    def __init__(self, lo, span):
        self.lo, self.span = lo, span

    def probability(self, signal):
        d = (signal - self.lo) / self.span
        return d * d


@dataclass
class PertSquare(PertRed):
    @property
    def law(self):
        return SquareRamp(self.t_min, self.t_max - self.t_min)

    def equilibrium(self):
        w = self.rtt * self.capacity / self.n_flows
        p = 1.0 / (self.beta_decrease * w * w)
        return w, p, self.t_min + (self.t_max - self.t_min) * math.sqrt(p)


def test_a_new_law_needs_only_its_probability():
    model = PertSquare(rtt=0.1)
    w, p, _ = model.equilibrium()
    x = model.equilibrium_state()
    assert model.rhs(0.0, x, x) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    A, B = model.linearization()
    dp_ds = 2.0 * math.sqrt(p) / (model.t_max - model.t_min)
    assert B[0, 2] == pytest.approx(-0.5 * dp_ds * w * w / model.rtt,
                                    rel=1e-14)
    assert (A[2, 1], A[2, 2]) == (-model.k_lpf, model.k_lpf)
