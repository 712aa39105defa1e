"""Spectral stability analysis of linear delay systems.

An independent check of the paper's stability results: instead of
integrating trajectories and eyeballing convergence (Figure 13) or
applying Theorem 1's sufficient condition, we take the fluid model's
linearization around its equilibrium
(:meth:`repro.fluid.model.FluidModel.linearization`),

    x'(t) = A x(t) + B x(t - R),

and compute the rightmost characteristic roots directly via Chebyshev
pseudospectral collocation (Breda, Maset & Vermiglio's method): the
infinitesimal generator of the DDE is discretised on ``m+1`` Chebyshev
nodes over [-R, 0], and the eigenvalues of the resulting
``n(m+1) x n(m+1)`` matrix approximate the DDE spectrum — the rightmost
ones to machine precision for modest ``m``.

Local asymptotic stability holds iff the rightmost root has negative
real part, which gives an *exact* (up to discretisation) boundary to
compare against Theorem 1's sufficient one (:func:`spectral_boundary`).
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

import numpy as np

__all__ = [
    "cheb",
    "rightmost_root",
    "spectral_boundary",
]


def cheb(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix and nodes on [-1, 1] (Trefethen).

    Returns ``(D, x)`` with ``x[0] = 1`` down to ``x[m] = -1``.
    """
    if m == 0:
        return np.zeros((1, 1)), np.array([1.0])
    x = np.cos(np.pi * np.arange(m + 1) / m)
    c = np.hstack([2.0, np.ones(m - 1), 2.0]) * (-1.0) ** np.arange(m + 1)
    X = np.tile(x, (m + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(m + 1))
    D -= np.diag(D.sum(axis=1))
    return D, x


def rightmost_root(A: np.ndarray, B: np.ndarray, tau: float, m: int = 24) -> complex:
    """Rightmost characteristic root of ``x' = A x(t) + B x(t - tau)``.

    Parameters
    ----------
    A, B:
        System matrices (n x n).
    tau:
        The delay (> 0).  With ``tau == 0`` the result is simply the
        rightmost eigenvalue of ``A + B``.
    m:
        Chebyshev discretisation order; 20-30 resolves the dominant
        roots of small systems to high accuracy.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError("A and B must be square and same-sized")
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if tau == 0:
        eigs = np.linalg.eigvals(A + B)
        return eigs[np.argmax(eigs.real)]
    D, _ = cheb(m)
    # nodes map [-1, 1] -> [-tau, 0]; node 0 corresponds to t = 0
    D = D * (2.0 / tau)
    big = np.kron(D, np.eye(n))
    # replace the first block row with the DDE's boundary condition:
    # x'(0) = A x(0) + B x(-tau)
    big[:n, :] = 0.0
    big[:n, :n] = A
    big[:n, -n:] = B
    eigs = np.linalg.eigvals(big)
    return eigs[np.argmax(eigs.real)]


def spectral_boundary(
    make: Callable[[float], Any],
    lo: float,
    hi: float,
    tol: float = 1e-4,
    m: int = 24,
) -> float:
    """Bisect the RTT at which ``make(rtt)``, a fluid model, loses
    linear stability; it must be stable at *lo*, unstable at *hi*."""

    def real_part(rtt: float) -> float:
        model = make(rtt)
        return rightmost_root(*model.linearization(), model.rtt, m=m).real

    if real_part(lo) >= 0:
        raise ValueError("model is already unstable at the lower bound")
    if real_part(hi) < 0:
        raise ValueError("model is still stable at the upper bound")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if real_part(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
