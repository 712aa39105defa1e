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
