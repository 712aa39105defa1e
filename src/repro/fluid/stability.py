"""Stability theory of PERT (paper Theorems 1 and 2).

Implements, symbol for symbol, the conditions of Section 5.2:

* ``l_pert``  — L_PERT = p_max / (T_max - T_min)                (eq. 10)
* ``k_lpf``   — K = ln(alpha) / delta                           (eq. 10)
* ``omega_g`` — w_g = 0.1 * min( 2N⁻/(R⁺²C), 1/R⁺ )            (eq. 12)
* ``theorem1_holds`` — L R⁺³C² / (2N⁻)² <= sqrt(w_g²/K² + 1)    (eq. 11)
* ``min_delta`` — the sampling-interval guideline               (eq. 13)
* ``scale_invariant_holds`` — the C-independent condition when
  C/N = sigma is constant                                       (eq. 15)
* ``pert_pi_gains`` — Theorem 2's (m, K) schedule               (eq. 21)

plus an empirical stability classifier for DDE trajectories, used to
locate the stability boundary the way the paper does in Figure 13(b-d).
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from ..laws import check_positive, lpf_pole, ramp_slope
from .dde import DdeSolution

__all__ = [
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
]


def _finite(**values: float) -> None:
    for name, value in values.items():
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")


def l_pert(p_max: float, t_min: float, t_max: float) -> float:
    """Slope of the emulated RED curve: p_max / (T_max - T_min)."""
    _finite(p_max=p_max, t_min=t_min, t_max=t_max)
    if t_max <= t_min:
        raise ValueError("need t_max > t_min")
    return ramp_slope(p_max, t_min, t_max)


def k_lpf(alpha: float, delta: float) -> float:
    """Continuous-time LPF pole K = ln(alpha)/delta (negative)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    check_positive(delta=delta)
    return lpf_pole(alpha, delta)


def omega_g(n_minus: float, r_plus: float, capacity: float) -> float:
    """Crossover-frequency bound w_g of eq. (12)."""
    check_positive(n_minus=n_minus, r_plus=r_plus, capacity=capacity)
    return 0.1 * min(2.0 * n_minus / (r_plus**2 * capacity), 1.0 / r_plus)


def theorem1_holds(
    capacity: float,
    n_minus: float,
    r_plus: float,
    p_max: float = 0.05,
    t_min: float = 0.005,
    t_max: float = 0.010,
    alpha: float = 0.99,
    delta: float = 1e-3,
) -> bool:
    """Sufficient local-stability condition of Theorem 1 (eq. 11).

    Not sufficient everywhere, by the linearization's spectrum: with this
    default curve at C = 100 it holds at (N, R) = (5, 100 ms), rightmost
    root +0.801 ± 7.018j, with eq. (11) on its edge (1.0000 <= 1.0049),
    and at (20, 240 ms), rightmost root +0.056 ± 4.076j
    (``tests/fluid/test_theorem1_spectral.py``).
    """
    lp = l_pert(p_max, t_min, t_max)
    k = k_lpf(alpha, delta)
    wg = omega_g(n_minus, r_plus, capacity)
    lhs = lp * r_plus**3 * capacity**2 / (2.0 * n_minus) ** 2
    rhs = math.sqrt(wg**2 / k**2 + 1.0)
    return lhs <= rhs


def min_delta(
    capacity: float,
    n_minus: float,
    r_plus: float,
    p_max: float = 0.1,
    t_min: float = 0.05,
    t_max: float = 0.1,
    alpha: float = 0.99,
) -> float:
    """Minimum stable sampling interval δ of eq. (13).

    Returns 0 when the square-root argument is non-positive, i.e. the
    condition holds for every δ (the gain margin is already sufficient).
    """
    lp = l_pert(p_max, t_min, t_max)
    wg = omega_g(n_minus, r_plus, capacity)
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    arg = lp**2 * r_plus**6 * capacity**4 - 16.0 * n_minus**4
    if arg <= 0:
        return 0.0
    return -math.log(alpha) / (4.0 * n_minus**2 * wg) * math.sqrt(arg)


def scale_invariant_holds(
    sigma: float,
    r_plus: float,
    p_max: float = 0.05,
    t_min: float = 0.005,
    t_max: float = 0.010,
    alpha: float = 0.99,
    delta: float = 1e-3,
) -> bool:
    """Eq. (15): the condition when C/N = sigma is held constant.

        L_PERT σ² R⁺ <= 4 sqrt( 0.04 / (σ² K² R⁺⁴) + 1 )
    """
    check_positive(sigma=sigma, r_plus=r_plus)
    lp = l_pert(p_max, t_min, t_max)
    k = k_lpf(alpha, delta)
    lhs = lp * sigma**2 * r_plus
    rhs = 4.0 * math.sqrt(0.04 / (sigma**2 * k**2 * r_plus**4) + 1.0)
    return lhs <= rhs


def pert_pi_gains(
    capacity: float,
    n_minus: float,
    r_plus: float,
    r_star: float = None,
) -> Tuple[float, float]:
    """Theorem 2's PI gain schedule (eq. 21): returns (k, m).

        m = 2 N⁻ / (R⁺² C)
        K = m * |j R* m + 1| / ( R⁺³ C² / (2 N⁻)² )
          = m * sqrt((R* m)² + 1) * (2 N⁻)² / (R⁺³ C²)
    """
    check_positive(capacity=capacity, n_minus=n_minus, r_plus=r_plus)
    r_star = r_star if r_star is not None else r_plus
    check_positive(r_star=r_star)
    m = 2.0 * n_minus / (r_plus**2 * capacity)
    gain_denom = r_plus**3 * capacity**2 / (2.0 * n_minus) ** 2
    k = m * math.hypot(r_star * m, 1.0) / gain_denom
    return k, m


def equilibrium(capacity: float, n_flows: float, rtt: float) -> Tuple[float, float]:
    """Paper eq. (9): (W*, p*) = (RC/N, 2N²/(R²C²)).

    The closed form at the paper's β = 0.5, kept beside
    :meth:`repro.fluid.FluidModel.equilibrium` (which solves the window
    equation at any β) because it is the paper's own formula and the
    ``fluid.grid`` benchmark imports it.  Where β is 0.5 the two agree
    up to their expressions' rounding: W* exactly, p* within 11 ulp
    (``tests/fluid/test_stability.py``).
    """
    check_positive(capacity=capacity, n_flows=n_flows, rtt=rtt)
    w_star = rtt * capacity / n_flows
    p_star = 2.0 * n_flows**2 / (rtt**2 * capacity**2)
    return w_star, p_star


# ----------------------------------------------------------------------
# empirical classification of DDE trajectories
# ----------------------------------------------------------------------
def trajectory_is_stable(
    sol: DdeSolution,
    component: int = 0,
    settle_fraction: float = 0.5,
    tolerance: float = 0.02,
) -> bool:
    """Heuristic: does the trajectory converge rather than oscillate?

    Splits the post-transient part (after ``settle_fraction`` of the run)
    in half and compares peak-to-peak amplitudes: decaying (or already
    flat relative to the mean) counts as stable, sustained or growing
    oscillation as unstable.  This mirrors the visual classification of
    the paper's Figure 13(b-d).
    """
    y = sol.component(component)
    n = len(y)
    start = int(n * settle_fraction)
    tail = y[start:]
    if len(tail) < 8:
        raise ValueError("trajectory too short to classify")
    half = len(tail) // 2
    first, second = tail[:half], tail[half:]
    amp1 = float(np.ptp(first))
    amp2 = float(np.ptp(second))
    scale = max(abs(float(np.mean(tail))), 1e-12)
    if amp2 / scale < tolerance:
        return True
    return amp2 < 0.9 * amp1


def find_stability_boundary(
    make_solution: Callable[[float], DdeSolution],
    lo: float,
    hi: float,
    tol: float = 1e-3,
    component: int = 0,
) -> float:
    """Bisect for the parameter value where trajectories turn unstable.

    ``make_solution(param)`` must be stable at *lo* and unstable at *hi*;
    returns the boundary estimate.  Used to empirically confirm the
    paper's ~171 ms delay boundary for the Figure 13 configuration.
    """
    if not trajectory_is_stable(make_solution(lo), component):
        raise ValueError("expected a stable trajectory at the lower bound")
    if trajectory_is_stable(make_solution(hi), component):
        raise ValueError("expected an unstable trajectory at the upper bound")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if trajectory_is_stable(make_solution(mid), component):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
