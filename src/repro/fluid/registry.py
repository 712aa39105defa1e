"""Unified fluid-model construction: the ``make_fluid_model`` registry.

Historically the three fluid models (:class:`TcpRedFluidModel`,
:class:`PertRedFluidModel`, :class:`PertPiFluidModel`) were constructed
ad hoc, with call sites hard-coding the class and its keyword
conventions.  This module replaces that with the same declarative shape
the queue disciplines use (:func:`repro.sim.queues.make_queue`):

>>> model = make_fluid_model("pert_red", capacity=1000.0, n_flows=50)

``make_fluid_model`` validates every parameter against the implementing
dataclass's constructor signature and rejects unknown model names and
parameters eagerly, with the valid names listed.  Direct constructor
calls (``PertRedFluidModel(...)``) simply work.

The :class:`FluidModel` protocol documents the surface every registered
model shares — the hybrid engine (:mod:`repro.hybrid`) and the rate
export (:mod:`repro.fluid.rates`) are written against it, never against
a concrete class.  Registered models state their dynamics once, float
native, and inherit ``rhs`` / ``simulate`` from
:class:`repro.fluid.dynamics.FloatDynamics`; adding a model is that one
function plus a line in :data:`FLUID_MODELS`.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Protocol, Sequence, Tuple, Type, runtime_checkable

from .dde import DdeSolution
from .pert_pi import PertPiFluidModel
from .pert_red import PertRedFluidModel
from .tcp_red import TcpRedFluidModel

__all__ = [
    "FluidModel",
    "FLUID_MODELS",
    "make_fluid_model",
    "fluid_model_params",
]


@runtime_checkable
class FluidModel(Protocol):
    """Shared surface of every registered fluid model.

    A fluid model describes ``n_flows`` identical long-lived flows
    sharing a bottleneck of ``capacity`` packets/second over a
    round-trip delay ``rtt``; its state vector always starts with the
    per-flow congestion window W(t) in packets, so the aggregate
    arrival rate at the bottleneck is ``n_flows * W(t) / rtt``
    regardless of the concrete model (see :mod:`repro.fluid.rates`).
    """

    capacity: float
    n_flows: int
    rtt: float

    def equilibrium(self) -> Tuple[float, float, float]:
        """Stationary point; first component is always W*."""
        ...

    def equilibrium_state(self) -> Tuple[float, float, float]:
        """:meth:`equilibrium` mapped onto the model's state vector."""
        ...

    def rhs(self, t: float, x: Sequence[float],
            xd: Sequence[float]) -> Sequence[float]:
        """One evaluation of the DDE right-hand side, float contract.

        *x* and the delayed state *xd* = ``x(t - rtt)`` are sequences of
        Python floats and so is the call's result (see
        :func:`repro.fluid.integrate_dde_floats`); it is the function
        :meth:`simulate` integrates, not a second copy of it.
        """
        ...

    def simulate(self, duration: float, dt: float = 1e-3, x0=None,
                 method: str = "rk4") -> DdeSolution:
        """Integrate the model's DDE from ``x0`` over ``duration``."""
        ...


#: model name -> implementing class
FLUID_MODELS: Dict[str, Type] = {
    "tcp_red": TcpRedFluidModel,
    "pert_red": PertRedFluidModel,
    "pert_pi": PertPiFluidModel,
}


def fluid_model_params(name: str) -> Dict[str, inspect.Parameter]:
    """Constructor keywords accepted by the named model."""
    cls = FLUID_MODELS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown fluid model {name!r}; valid: {sorted(FLUID_MODELS)}"
        )
    sig = inspect.signature(cls.__init__)
    return {n: p for n, p in sig.parameters.items() if n != "self"}


def make_fluid_model(name: str, **params: Any) -> FluidModel:
    """Build the fluid model registered under *name*.

    Parameters are validated against the implementing dataclass's
    constructor signature; unknown names raise :class:`ValueError`
    listing the valid ones (mirroring
    :class:`repro.sim.queues.QueueConfig`), so a typo fails at
    construction rather than as a silently ignored knob.
    """
    allowed = fluid_model_params(name)
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {unknown} for fluid model {name!r}; "
            f"valid: {sorted(allowed)}"
        )
    return FLUID_MODELS[name](**params)
