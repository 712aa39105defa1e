"""What a registered fluid model inherits: ``rhs`` and ``simulate``.

A registered model states its dynamics exactly once, as a float-contract
right-hand side (see :func:`repro.fluid.dde.integrate_dde_floats`):
``dynamics()`` binds the derived constants — curve slope, filter pole,
reciprocals — and returns ``f(t, x, xd)`` working on Python floats, with
``xd = x(t - rtt)`` computed by the kernel (the model's ``rtt`` is the
lag :meth:`~FloatDynamics.simulate` declares).
Everything else is here.  Adding a fluid model is that one method, a
default start, and a line in :data:`repro.fluid.registry.FLUID_MODELS`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from .dde import DdeSolution, integrate_dde_floats

__all__ = ["FloatDynamics"]


class FloatDynamics:
    """Base of the registered models: one ``dynamics()``, used two ways."""

    #: default initial state (also the constant pre-history)
    x0_default: Tuple[float, ...] = (1.0, 1.0, 1.0)

    def dynamics(self) -> Callable:
        """Bind this model's constants; return its float-contract rhs.

        Called once per :meth:`simulate` (never inside the stepping
        loop), so a parameter changed between two calls is honoured.
        """
        raise NotImplementedError

    def rhs(self, t: float, x: Sequence[float],
            xd: Sequence[float]) -> Tuple[float, ...]:
        """One evaluation of :meth:`dynamics` at ``(t, x)``.

        *x* and the delayed state *xd* (``x(t - rtt)``) are sequences of
        floats; for a whole trajectory call :meth:`simulate`, which binds
        once.
        """
        return self.dynamics()(t, x, xd)

    def simulate(
        self,
        duration: float,
        dt: float = 1e-3,
        x0: Optional[Sequence[float]] = None,
        method: str = "rk4",
    ) -> DdeSolution:
        """Integrate the DDE from *x0* (default :attr:`x0_default`).

        The grid ends at ``round(duration / dt) * dt`` — not at
        *duration* when the span is not a multiple of the step.
        """
        start = self.x0_default if x0 is None else x0
        return integrate_dde_floats(self.dynamics(), start, (0.0, duration),
                                    dt, method=method, lag=self.rtt)
