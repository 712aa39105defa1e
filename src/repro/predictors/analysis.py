"""State-machine scoring of congestion predictors (paper Figure 1-4).

The paper models a flow as moving between three states — A ("low delay"),
B ("high delay", i.e. congestion predicted) and C (loss) — and scores a
predictor by which transitions occur:

* transition "2" (B -> C): the predictor was in the high state when a
  loss happened — a correct prediction;
* transition "5" (B -> A): the high state ended without any loss — a
  *false positive*;
* transition "4" (A -> C): a loss arrived while the predictor was low —
  a *false negative*.

Following the paper:

    efficiency      = n2 / (n2 + n5)
    false positives = n5 / (n2 + n5)
    false negatives = n4 / (n2 + n4)

Losses can be measured two ways, and contrasting them is the point of
the paper's Figure 2: *flow-level* (the observed flow's own loss
detections, as in the tcpdump studies the paper critiques) versus
*queue-level* (every drop at the bottleneck queue).

Loss events closer together than ``coalesce`` seconds count as a single
congestion event, mirroring the congestion-epoch granularity of the
measurement studies.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .base import Predictor

__all__ = [
    "TransitionCounts",
    "coalesce_events",
    "score_predictor",
    "high_to_loss_fraction",
    "false_positive_times",
    "false_positive_samples",
]


@dataclass
class TransitionCounts:
    """Counts of the paper's Figure 1 transitions and derived metrics."""

    n2: int = 0  # B -> C : predicted loss
    n4: int = 0  # A -> C : unpredicted loss (false negative)
    n5: int = 0  # B -> A : high period with no loss (false positive)

    @property
    def efficiency(self) -> float:
        total = self.n2 + self.n5
        return self.n2 / total if total else 0.0

    @property
    def false_positive_rate(self) -> float:
        total = self.n2 + self.n5
        return self.n5 / total if total else 0.0

    @property
    def false_negative_rate(self) -> float:
        total = self.n2 + self.n4
        return self.n4 / total if total else 0.0


def coalesce_events(times: Sequence[float], window: float) -> List[float]:
    """Merge event times closer than *window* into single events."""
    if window < 0:
        raise ValueError("window must be >= 0")
    out: List[float] = []
    for t in sorted(times):
        if not out or t - out[-1] > window:
            out.append(t)
    return out


def _scan(
    states: Sequence[Tuple[float, bool]],
    losses: Sequence[float],
) -> TransitionCounts:
    """Walk the predictor-state series against coalesced loss events.

    Each maximal high period scores one Figure 1 transition — "2" if at
    least one loss fell inside it, "5" otherwise.  This treats a high
    period as one prediction, the view under which the paper's fractions
    are comparable across signals of very different smoothness.  Losses
    while the predictor is low are A -> C ("4").
    """
    counts = TransitionCounts()
    li = 0
    n = len(losses)
    in_high = False
    high_has_loss = False
    for t, high in states:
        # account losses up to and including this sample time
        while li < n and losses[li] <= t:
            if in_high:
                high_has_loss = True
            else:
                counts.n4 += 1
            li += 1
        if high and not in_high:
            in_high = True
            high_has_loss = False
        elif not high and in_high:
            in_high = False
            if high_has_loss:
                counts.n2 += 1
            else:
                counts.n5 += 1
    # Trailing losses (after the last sample) occur in the final state.
    if in_high:
        if high_has_loss or li < n:
            counts.n2 += 1
        else:
            counts.n5 += 1
    else:
        counts.n4 += n - li
    return counts


def score_predictor(
    predictor: Predictor,
    trace: Iterable[Tuple[float, float, float]],
    loss_times: Sequence[float],
    coalesce: float = 0.1,
) -> TransitionCounts:
    """Replay *predictor* over a per-ACK trace and score it against losses."""
    predictor.reset()
    states = [(t, predictor.update(t, rtt, cwnd)) for t, rtt, cwnd in trace]
    losses = coalesce_events(loss_times, coalesce)
    if not states:
        return TransitionCounts(n4=len(losses))
    return _scan(states, losses)


def high_to_loss_fraction(
    predictor: Predictor,
    trace: Iterable[Tuple[float, float, float]],
    loss_times: Sequence[float],
    coalesce: float = 0.1,
) -> float:
    """Fraction of high-RTT periods that end in a loss (Figure 2's metric)."""
    return score_predictor(predictor, trace, loss_times, coalesce).efficiency


def false_positive_times(
    predictor: Predictor,
    trace: Iterable[Tuple[float, float, float]],
    loss_times: Sequence[float],
    coalesce: float = 0.1,
) -> List[float]:
    """End times of high periods that contained no loss (for Figure 4).

    The paper plots the distribution of bottleneck-queue occupancy at the
    moments false positives occur; these timestamps are looked up in a
    :class:`~repro.sim.monitors.QueueSampler`.
    """
    predictor.reset()
    losses = coalesce_events(loss_times, coalesce)
    out: List[float] = []
    li = 0
    in_high = False
    high_has_loss = False
    for t, rtt, cwnd in trace:
        high = predictor.update(t, rtt, cwnd)
        while li < len(losses) and losses[li] <= t:
            if in_high:
                high_has_loss = True
            li += 1
        if high and not in_high:
            in_high = True
            high_has_loss = False
        elif not high and in_high:
            in_high = False
            if not high_has_loss:
                out.append(t)
    return out


def false_positive_samples(
    predictor: Predictor,
    trace: Iterable[Tuple[float, float, float]],
    loss_times: Sequence[float],
    horizon: float = 0.2,
) -> List[float]:
    """Per-sample false positives: high-state instants with no loss nearby.

    A finer-grained variant of :func:`false_positive_times` suited to
    short traces: every sample at which the predictor is in the high
    state but no loss occurs within ``±horizon`` seconds counts as a
    false-positive instant.  The paper's Figure 4 distribution is built
    from such instants' queue occupancies; on the scaled-down traces this
    per-sample definition provides enough mass for a stable histogram
    while preserving the property being tested (prediction uncertainty
    concentrates at low queue occupancy).
    """
    predictor.reset()
    losses = sorted(loss_times)
    out: List[float] = []
    for t, rtt, cwnd in trace:
        if not predictor.update(t, rtt, cwnd):
            continue
        i = bisect.bisect_left(losses, t - horizon)
        if i < len(losses) and losses[i] <= t + horizon:
            continue
        out.append(t)
    return out
