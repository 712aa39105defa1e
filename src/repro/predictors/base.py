"""Congestion-predictor interface (paper Section 2).

A predictor consumes the per-ACK trace of a flow — ``(time, rtt, cwnd)``
samples — and maintains a binary state: *high congestion predicted* or
not.  This corresponds to states B and A of the paper's Figure 1; the
state machine analysis in :mod:`repro.predictors.analysis` combines the
predictor state with observed losses (state C) to score prediction
efficiency, false positives and false negatives.
"""

from __future__ import annotations

__all__ = ["Predictor"]


class Predictor:
    """Base class.  Subclasses implement :meth:`update`."""

    #: human-readable name used in experiment tables
    name = "base"

    def update(self, t: float, rtt: float, cwnd: float) -> bool:
        """Consume one per-ACK sample; return True if congestion is predicted."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore initial state so a predictor can be replayed."""
        raise NotImplementedError
