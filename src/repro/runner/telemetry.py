"""Progress counters and hooks for runner executions.

The executor updates one :class:`RunnerStats` per call to
:func:`repro.runner.run_jobs` and invokes the user's ``progress`` hook
with it after every job settles (fresh completion, cache hit, or final
failure).  ``events`` counts simulator events actually processed this
run — cache hits contribute nothing — so ``events_per_second`` is the
live simulation throughput the ROADMAP cares about.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = [
    "RunnerStats",
    "format_eta",
    "progress_line",
    "progress_printer",
    "resolve_progress",
]

ProgressHook = Callable[["RunnerStats"], None]


@dataclass
class RunnerStats:
    """Live counters for one ``run_jobs`` call."""

    total: int
    done: int = 0  # fresh, successful jobs
    failed: int = 0  # jobs that exhausted their retries
    cached: int = 0  # served from the on-disk cache
    retries: int = 0  # extra attempts consumed
    events: int = 0  # simulator events processed by fresh jobs
    wall_time: float = 0.0  # summed per-job wall seconds (fresh jobs)
    peak_rss_kb: int = 0  # highest RSS high-water mark of any process that ran a job
    started: float = field(default_factory=time.monotonic)

    @property
    def finished(self) -> int:
        """Jobs settled so far (fresh + failed + cache hits)."""
        return self.done + self.failed + self.cached

    def elapsed(self) -> float:
        """Wall seconds since this ``run_jobs`` call started (never 0)."""
        return max(1e-9, time.monotonic() - self.started)

    def events_per_second(self) -> float:
        """Live simulation throughput: fresh-job events over elapsed time."""
        return self.events / self.elapsed()

    def snapshot(self) -> Dict:
        """Immutable plain-dict view (handy for asserting in tests)."""
        return {
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "cached": self.cached,
            "retries": self.retries,
            "events": self.events,
            "wall_time": self.wall_time,
            "peak_rss_kb": self.peak_rss_kb,
            "elapsed": self.elapsed(),
            "events_per_second": self.events_per_second(),
        }

    def summary(self) -> str:
        """One-line human-readable progress string for log output."""
        line = (
            f"{self.finished}/{self.total} jobs "
            f"({self.cached} cached, {self.failed} failed, "
            f"{self.retries} retries) "
            f"{self.events_per_second():,.0f} events/s"
        )
        if self.peak_rss_kb:
            line += f" peak_rss={self.peak_rss_kb}KB"
        return line


def format_eta(seconds: Optional[float]) -> str:
    """Compact ETA: ``0:42``, ``3:05``, ``1:02:09``; ``-`` when unknown."""
    if seconds is None or seconds < 0:
        return "-"
    total = int(round(seconds))
    hours, rem = divmod(total, 3600)
    minutes, secs = divmod(rem, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class _EwmaRate:
    """EWMA-smoothed settle rate (jobs/s) from successive observations.

    The raw per-job rate is spiky — cache hits settle in microseconds,
    fresh simulations in seconds — so the ETA uses an exponentially
    weighted moving average of the instantaneous rate instead (higher
    *alpha* tracks faster, smooths less).
    """

    def __init__(self, alpha: float = 0.3) -> None:
        self.alpha = alpha
        self._last_n: Optional[int] = None
        self._last_t: Optional[float] = None
        self.rate: Optional[float] = None

    def update(self, finished: int, now: float) -> Optional[float]:
        """Fold in an observation; return the smoothed jobs/s (or None)."""
        if self._last_n is not None and now > self._last_t and finished > self._last_n:
            inst = (finished - self._last_n) / (now - self._last_t)
            if self.rate is None:
                self.rate = inst
            else:
                self.rate = self.alpha * inst + (1 - self.alpha) * self.rate
        if self._last_n is None or finished != self._last_n:
            self._last_n, self._last_t = finished, now
        return self.rate


def progress_line(stats: RunnerStats, rate: Optional[float] = None) -> str:
    """The progress string: counters, events/s, smoothed rate and ETA.

    Pure formatting (no I/O, no clock reads beyond what *stats* holds),
    so unit tests can pin the output exactly.
    """
    line = f"[repro.runner] {stats.summary()}"
    if rate is not None and rate > 0:
        remaining = max(0, stats.total - stats.finished)
        line += f" | {rate:.2f} jobs/s eta {format_eta(remaining / rate)}"
    return line


def progress_printer(stream=None) -> ProgressHook:
    """Hook printing live progress with a smoothed job rate and ETA.

    On a TTY the line is redrawn in place (``\\r``, padded to cover the
    previous draw) with a final newline once every job has settled; on
    anything else — CI logs, redirected files — each settle appends one
    plain newline-terminated line, so logs never fill with carriage
    returns.  Defaults to stderr.
    """
    out = stream if stream is not None else sys.stderr
    is_tty = bool(getattr(out, "isatty", lambda: False)())
    ewma = _EwmaRate()
    last_width = 0

    def hook(stats: RunnerStats) -> None:
        nonlocal last_width
        rate = ewma.update(stats.finished, time.monotonic())
        line = progress_line(stats, rate)
        if is_tty:
            pad = " " * max(0, last_width - len(line))
            last_width = len(line)
            end = "\n" if stats.finished >= stats.total else ""
            print(f"\r{line}{pad}", file=out, end=end, flush=True)
        else:
            print(line, file=out, flush=True)

    return hook


def resolve_progress(progress) -> Optional[ProgressHook]:
    """``None`` honours ``$REPRO_PROGRESS``; callables pass through."""
    if progress is not None:
        return progress if callable(progress) else None
    if os.environ.get("REPRO_PROGRESS", "").strip().lower() in {"1", "on", "true", "yes"}:
        return progress_printer()
    return None
