"""Fluid-flow models and stability theory (paper Sections 5-6).

One model, :class:`FluidModel` (:mod:`repro.fluid.model`), writes the
window, queue and filter equations once and asks a :mod:`repro.laws`
law for the probability; ``pert_red``, ``tcp_red`` and ``pert_pi`` are
parameter sets of it (``make_fluid_model``).

Two right-hand-side contracts, one scalar kernel.  The registered models
are written against the **float contract** —
state and delayed state ``x(t - rtt)`` are sequences of Python floats,
the delay declared to the kernel as its ``lag`` — as source the kernel
steps in place of an rhs call (``simulate``), or compiles into the rhs
:func:`integrate_dde_floats` calls (``dynamics``), bit for bit the same;
:func:`integrate_dde` keeps the
**array contract** (``(dim,)`` float64 arrays, ``A @ x``-style code) for
everything else, as an adapter over that same loop.
:func:`simulate_batch` runs many models, each its own equations on that
loop, into one buffer on one grid.  See :mod:`repro.fluid.dde`.
"""

from .dde import DdeSolution, integrate_dde, integrate_dde_floats
from .model import (
    FLUID_MODELS,
    FluidModel,
    PertPi,
    PertRed,
    TcpRed,
    fluid_model_params,
    make_fluid_model,
    simulate_batch,
)
from .spectrum import rightmost_root, spectral_boundary
from .stability import (
    equilibrium,
    find_stability_boundary,
    k_lpf,
    l_pert,
    min_delta,
    omega_g,
    pert_pi_gains,
    scale_invariant_holds,
    theorem1_holds,
    trajectory_is_stable,
)

__all__ = [
    "integrate_dde",
    "integrate_dde_floats",
    "DdeSolution",
    "simulate_batch",
    "FluidModel",
    "FLUID_MODELS",
    "make_fluid_model",
    "fluid_model_params",
    "PertRed",
    "TcpRed",
    "PertPi",
    "l_pert",
    "k_lpf",
    "omega_g",
    "theorem1_holds",
    "min_delta",
    "scale_invariant_holds",
    "pert_pi_gains",
    "equilibrium",
    "trajectory_is_stable",
    "find_stability_boundary",
    "rightmost_root",
    "spectral_boundary",
]
