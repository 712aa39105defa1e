"""Fluid-model registry: factory round-trips and eager validation."""

import warnings

import pytest

from repro.fluid import (
    FLUID_MODELS,
    FluidModel,
    fluid_model_params,
    make_fluid_model,
)


@pytest.mark.parametrize("name", sorted(FLUID_MODELS))
def test_factory_roundtrip(name):
    model = make_fluid_model(name, capacity=250.0, n_flows=5, rtt=0.08)
    assert isinstance(model, FLUID_MODELS[name])
    assert isinstance(model, FluidModel)
    assert model.capacity == 250.0
    assert model.n_flows == 5
    assert model.rtt == 0.08
    # the registered surface is actually usable
    w_star = model.equilibrium()[0]
    assert w_star == pytest.approx(0.08 * 250.0 / 5)
    state = model.equilibrium_state()
    assert state[0] == pytest.approx(w_star)


def test_factory_rejects_unknown_model():
    with pytest.raises(ValueError, match="pert_red"):
        make_fluid_model("no_such_model")


def test_factory_rejects_unknown_param():
    with pytest.raises(ValueError, match="capacitee"):
        make_fluid_model("pert_red", capacitee=100.0)


def test_fluid_model_params_lists_constructor_fields():
    params = fluid_model_params("pert_red")
    assert {"capacity", "n_flows", "rtt", "t_min", "t_max"} <= set(params)


@pytest.mark.parametrize("name", sorted(FLUID_MODELS))
def test_direct_construction_simply_works(name):
    """The dataclasses are plain constructors: no shim, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        direct = FLUID_MODELS[name](capacity=250.0, n_flows=5)
    assert direct == make_fluid_model(name, capacity=250.0, n_flows=5)


def test_factory_construction_does_not_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        make_fluid_model("pert_red")
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]


#: every registered name's keywords and defaults, in constructor order
KEYWORDS = {
    "pert_red": [("capacity", 100.0), ("n_flows", 5), ("rtt", 0.1),
                 ("p_max", 0.1), ("t_min", 0.05), ("t_max", 0.1),
                 ("alpha", 0.99), ("delta", 1e-4), ("beta_decrease", 0.5),
                 ("clamp", False), ("approximate_self_delay", False),
                 ("n_of_t", None)],
    "tcp_red": [("capacity", 100.0), ("n_flows", 5), ("rtt", 0.1),
                ("p_max", 0.1), ("min_th", 5.0), ("max_th", 10.0),
                ("alpha", 0.99), ("delta", None), ("clamp", False)],
    "pert_pi": [("capacity", 100.0), ("n_flows", 5), ("rtt", 0.1),
                ("k", 0.1), ("m", 1.0), ("tq_ref", 0.05), ("clamp", True)],
}


def test_no_keyword_added_or_lost():
    assert sorted(FLUID_MODELS) == sorted(KEYWORDS)
    for name, expected in KEYWORDS.items():
        got = [(k, p.default) for k, p in fluid_model_params(name).items()]
        assert got == expected, name


def test_pert_red_surface_and_equilibrium_are_pinned():
    """What ``benchmarks/e2e`` reads, and the point ``linearization()``
    expands about (``equilibrium_state``), bit for bit: the default model
    and the packet sender's matched curve (β = 0.35, clamped)."""
    m = make_fluid_model("pert_red")
    for attr in ("capacity", "n_flows", "rtt", "p_max", "t_min", "t_max",
                 "alpha", "delta", "l_pert"):
        assert getattr(m, attr) is not None, attr
    assert m.equilibrium() == (2.0, 0.5, 0.3)
    assert m.equilibrium_state() == (2.0, 0.3, 0.3)
    matched = make_fluid_model(
        "pert_red", capacity=400.0, n_flows=8, rtt=0.06, t_min=0.005,
        t_max=0.010, p_max=0.05, beta_decrease=0.35, clamp=True)
    assert matched.equilibrium() == (3.0, 0.31746031746031744,
                                     0.03674603174603174)
    assert matched.equilibrium_state() == (3.0, 0.03674603174603174,
                                           0.03674603174603174)


@pytest.mark.parametrize("name, params", [
    ("tcp_red", {"alpha": 1.5}),
    ("tcp_red", {"min_th": 10.0, "max_th": 5.0}),
    ("tcp_red", {"delta": -1.0}),
    ("pert_red", {"delta": -1e-4}),
    ("pert_red", {"delta": 0.0}),
    ("pert_red", {"p_max": -0.1}),
    ("pert_pi", {"tq_ref": -1.0}),
])
def test_out_of_range_parameters_raise_at_construction(name, params):
    with pytest.raises(ValueError):
        make_fluid_model(name, **params)
