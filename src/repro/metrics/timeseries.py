"""Time-series utilities: settling time and a text plot.

Used by the dynamic-behaviour experiments (Figure 12 and the
non-responsive-traffic variant) to quantify how quickly a scheme
re-apportions bandwidth after a load change.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["settling_time", "ascii_series"]


def settling_time(
    times: Sequence[float],
    series: Sequence[float],
    target: float,
    tolerance: float = 0.2,
    hold: int = 3,
) -> Optional[float]:
    """Time the series last enters (and stays in) a band around *target*.

    The classic control-theory settling time: the start of the final run
    of samples that all lie within ``tolerance`` (relative) of *target*,
    provided that run is at least *hold* samples long.  Returns ``None``
    if the series never settles.
    """
    if len(times) != len(series):
        raise ValueError("times and series must have equal length")
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must be in (0, 1)")
    if target == 0:
        raise ValueError("target must be non-zero")
    inside = [abs(x - target) / abs(target) <= tolerance for x in series]
    n = len(inside)
    candidate: Optional[int] = None
    run = 0
    for i in range(n):
        if inside[i]:
            run += 1
            if run == hold and candidate is None:
                candidate = i - hold + 1
        else:
            run = 0
            candidate = None
    if candidate is None:
        return None
    return times[candidate]


def ascii_series(values, width: int = 64, height: int = 10,
                 label: str = "") -> str:
    """Render a numeric series as a small ASCII plot (for examples/CLI)."""
    vals = [float(v) for v in values if v is not None]
    if not vals:
        return f"{label}(no data)"
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    step = max(1, len(vals) // width)
    cols = vals[::step][:width]
    lines = []
    if label:
        lines.append(label)
    for level in range(height, -1, -1):
        thresh = lo + span * level / height
        row = "".join("*" if v >= thresh else " " for v in cols)
        lines.append(f"{thresh:9.2f} |{row}")
    lines.append(" " * 11 + "-" * len(cols))
    return "\n".join(lines)
