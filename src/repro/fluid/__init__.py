"""Fluid-flow models and stability theory (paper Sections 5-6).

Two right-hand-side contracts, one scalar kernel.  The registered models
(``make_fluid_model``) are written against the **float contract** —
state and delayed state ``x(t - rtt)`` are sequences of Python floats,
the delay declared to the kernel as its ``lag`` — and integrate
through :func:`integrate_dde_floats`; :func:`integrate_dde` keeps the
**array contract** (``(dim,)`` float64 arrays, ``A @ x``-style code) for
everything else, as an adapter over that same loop.
:func:`integrate_dde_batch` advances many systems as array operations,
bit-identical per member.  See :mod:`repro.fluid.dde`.
"""

from .dde import (
    DdeBatchSolution,
    DdeSolution,
    integrate_dde,
    integrate_dde_batch,
    integrate_dde_floats,
)
from .pert_pi import PertPiFluidModel
from .pert_red import PertRedFluidModel, simulate_batch
from .rates import RateSegment, RateTrajectory, equilibrium_rate, rate_trajectory
from .registry import (
    FLUID_MODELS,
    FluidModel,
    fluid_model_params,
    make_fluid_model,
)
from .spectrum import (
    pert_red_linearization,
    pert_red_rightmost_root,
    pert_red_spectral_boundary,
    rightmost_root,
)
from .stability import (
    classify_trajectories,
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
from .tcp_red import TcpRedFluidModel

__all__ = [
    "integrate_dde",
    "integrate_dde_floats",
    "integrate_dde_batch",
    "DdeSolution",
    "DdeBatchSolution",
    "simulate_batch",
    "FluidModel",
    "FLUID_MODELS",
    "make_fluid_model",
    "fluid_model_params",
    "RateSegment",
    "RateTrajectory",
    "rate_trajectory",
    "equilibrium_rate",
    "classify_trajectories",
    "PertRedFluidModel",
    "TcpRedFluidModel",
    "PertPiFluidModel",
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
    "pert_red_linearization",
    "pert_red_rightmost_root",
    "pert_red_spectral_boundary",
]
