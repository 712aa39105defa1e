"""Theorem 1 (eq. 11) checked against the spectrum of the linearization.

Theorem 1 is a sufficient condition: wherever it holds, the rightmost
characteristic root should lie in the left half-plane.  On this grid it
does not at two points, both with the end-host curve; the set of such
points is pinned, so that a new one or a mended one is noticed.
"""

import numpy as np

from repro.fluid import make_fluid_model, rightmost_root, theorem1_holds

#: the paper's end-host curve (Sec. 3) and Figure 13's
CURVES = (dict(p_max=0.05, t_min=0.005, t_max=0.010, delta=1e-3),
          dict(p_max=0.1, t_min=0.05, t_max=0.1, delta=1e-4))
RTTS = [round(r, 3) for r in np.linspace(0.06, 0.30, 13)]

#: (p_max, C, N, R) where eq. (11) holds and the rightmost root is
#: +0.801 ± 7.018j and +0.056 ± 4.076j
VIOLATIONS = {(0.05, 100.0, 5, 0.1), (0.05, 100.0, 20, 0.24)}


def test_theorem1_is_sufficient_except_at_two_known_points():
    held, violations = 0, set()
    for curve in CURVES:
        for capacity in (100.0, 1000.0):
            for n_flows in (2, 5, 10, 20):
                for rtt in RTTS:
                    if not theorem1_holds(capacity, n_flows, rtt, **curve):
                        continue
                    held += 1
                    model = make_fluid_model("pert_red", capacity=capacity,
                                             n_flows=n_flows, rtt=rtt, **curve)
                    root = rightmost_root(*model.linearization(), model.rtt)
                    if root.real >= 0:
                        violations.add((curve["p_max"], capacity, n_flows, rtt))
    assert held == 52
    assert violations == VIOLATIONS
