"""Smoothed-RTT congestion signals (the paper's ``srtt_0.99``).

Section 2.4 of the paper evaluates a family of smoothers over the per-ACK
instantaneous RTT and settles on an exponentially weighted moving average
with history weight 0.99:

    srtt <- 0.99 * srtt + 0.01 * rtt_sample

This module provides that estimator plus the alternatives studied in
Figure 3 (instantaneous, EWMA with weight 7/8, and a buffer-sized moving
average), so both PERT itself and the predictor-comparison experiments
share one implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

__all__ = ["EwmaRtt", "MovingAverageRtt", "SRTT_WEIGHT_PERT", "SRTT_WEIGHT_TCP"]

SRTT_WEIGHT_PERT = 0.99  #: history weight used by PERT (srtt_0.99)
SRTT_WEIGHT_TCP = 7.0 / 8.0  #: classic TCP RTO smoothing weight


class EwmaRtt:
    """Exponentially weighted moving average of per-ACK RTT samples.

    Parameters
    ----------
    weight:
        Weight on the *history* term (the paper's α); the new sample gets
        ``1 - weight``.
    """

    def __init__(self, weight: float = SRTT_WEIGHT_PERT):
        if not 0.0 <= weight < 1.0:
            raise ValueError("weight must be in [0, 1)")
        self.weight = weight
        # hoisted out of update(): the per-ACK path must not recompute it
        self._gain = 1.0 - weight
        self.value: Optional[float] = None
        self.min_rtt = float("inf")
        self.samples = 0

    def update(self, sample: float) -> float:
        """Fold in one RTT sample; returns the new smoothed value."""
        if sample <= 0:
            raise ValueError("RTT samples must be positive")
        self.samples += 1
        if sample < self.min_rtt:
            self.min_rtt = sample
        value = self.value
        if value is None:
            self.value = sample
            return sample
        value = self.weight * value + self._gain * sample
        self.value = value
        return value

    @property
    def queuing_delay(self) -> float:
        """Current smoothed queuing-delay estimate: srtt − min RTT."""
        if self.value is None:
            return 0.0
        return max(0.0, self.value - self.min_rtt)

    def reset(self) -> None:
        self.value = None
        self.min_rtt = float("inf")
        self.samples = 0


class MovingAverageRtt:
    """Sliding-window mean of the last *window* RTT samples.

    Section 2.4 shows a 750-sample (buffer-sized) moving average is the
    best predictor but requires knowing the bottleneck buffer size, which
    motivates the EWMA replacement.
    """

    def __init__(self, window: int = 750):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._buf: Deque[float] = deque(maxlen=window)
        self._sum = 0.0

    def update(self, sample: float) -> float:
        if sample <= 0:
            raise ValueError("RTT samples must be positive")
        if len(self._buf) == self.window:
            self._sum -= self._buf[0]
        self._buf.append(sample)
        self._sum += sample
        return self.value

    @property
    def value(self) -> Optional[float]:
        if not self._buf:
            return None
        return self._sum / len(self._buf)
