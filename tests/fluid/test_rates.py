"""``repro.fluid.rates`` on the declared numpy floor.

``pyproject.toml`` declares ``numpy>=1.21``; ``np.trapezoid`` exists
only from 2.0 on (and ``np.trapz`` is gone again in 2.4), so the module
binds whichever this numpy has, once, at import.  The CI leg on numpy
1.26 meets the real thing; here a 1.x-shaped numpy is simulated.
"""

import importlib.util
import sys

import numpy as np

from repro.fluid import make_fluid_model, rate_trajectory, rates


def _window_means(traj):
    """Trapezoidal mean rate over each 0.5 s window of the 4 s horizon."""
    return [traj._mean_rate(0.5 * i, 0.5 * (i + 1)) for i in range(8)]


def test_mean_and_steady_rate_work_without_np_trapezoid(monkeypatch):
    traj = rate_trajectory(make_fluid_model("pert_red", rtt=0.06), 4.0, dt=2e-3)
    means, steady = _window_means(traj), traj.steady_rate()

    # a numpy 1.x: ``trapz`` and no ``trapezoid``
    monkeypatch.setattr(np, "trapz", rates._trapezoid, raising=False)
    monkeypatch.delattr(np, "trapezoid", raising=False)
    # A second copy of the module, imported under that numpy.  (Not
    # ``importlib.reload``: that would re-create the dataclasses under
    # the live module's name, and instances of the ones ``repro.hybrid``
    # already holds would stop pickling for the rest of the session.)
    spec = importlib.util.spec_from_file_location(
        "repro.fluid._rates_on_numpy1", rates.__file__)
    on_numpy1 = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, on_numpy1)
    spec.loader.exec_module(on_numpy1)

    old = on_numpy1.RateTrajectory(traj.times, traj.rate_pps)
    assert _window_means(old) == means
    assert old.steady_rate() == steady
