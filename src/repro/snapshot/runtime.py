"""Job-scoped checkpoint context shared between the runner and jobs.

Mirrors :mod:`repro.obs.runtime`: the executor wraps a job attempt in
:func:`checkpoint_scope`, and checkpoint-aware job code (the experiment
shell every packet scenario runs in) reaches the active slot through
:func:`active_checkpoint` without any plumbing through job parameters —
job *specs* (and cache keys) never mention checkpointing, because a
resumed run is bit-identical to a straight-through one and may share its
cache entry.

The slot's life cycle over a crashy job::

    attempt 1:  resume() -> None, save() every interval, worker killed
    attempt 2:  resume() -> state at the last checkpoint, continues,
                finishes; executor records lineage and deletes the file

Checkpoint *interval* is simulated seconds between periodic saves; the
``REPRO_CHECKPOINT`` environment variable supplies it when the
``checkpoint=`` argument of :func:`repro.runner.run_jobs` is ``None``.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..sim.engine import Simulator
from . import core
from .errors import SnapshotError

__all__ = [
    "CheckpointSlot",
    "checkpoint_scope",
    "active_checkpoint",
    "resolve_checkpoint_interval",
]

_OFF_VALUES = {"", "0", "off", "false", "no"}


def resolve_checkpoint_interval(checkpoint: Optional[float]) -> Optional[float]:
    """``None`` honours ``$REPRO_CHECKPOINT`` (simulated seconds); absent
    both, checkpointing is off.  ``0``/negative disables explicitly.  A
    value that is not a finite number raises ``ValueError`` naming the
    knob it came from."""
    name, raw = "checkpoint", checkpoint
    if checkpoint is None:
        name, raw = "REPRO_CHECKPOINT", os.environ.get("REPRO_CHECKPOINT", "").strip()
        if raw.lower() in _OFF_VALUES:
            return None
    try:
        interval = float(raw)
    except (TypeError, ValueError):
        interval = math.nan
    if not math.isfinite(interval):
        raise ValueError(
            f"{name} must be a finite number of simulated seconds, got {raw!r}")
    return interval if interval > 0 else None


class CheckpointSlot:
    """One job's checkpoint file plus resume/save bookkeeping."""

    def __init__(self, path: Union[str, Path], interval: float):
        self.path = Path(path)
        self.interval = float(interval)
        self.saves = 0
        self.resumed = False
        self.resumed_from: Optional[str] = None
        self.resumed_at: Optional[float] = None
        self.last_id: Optional[str] = None

    # -- resume --------------------------------------------------------
    def resume(self) -> Optional[Tuple[Simulator, Any]]:
        """Restore the slot's checkpoint if one exists; ``None`` otherwise.

        A checkpoint that fails verification (torn write survived the
        atomic rename somehow, version bump in between) is discarded so
        the job falls back to a fresh run — resume is an optimization,
        never a correctness requirement.
        """
        if not self.path.exists():
            return None
        try:
            restored = core.load(self.path)
        except SnapshotError:
            self.discard()
            return None
        self.resumed = True
        self.resumed_from = restored.id
        self.resumed_at = restored.sim.now
        self.last_id = restored.id
        # Lazy import: the bus is optional live telemetry, resume is not.
        from ..obs import bus as _bus

        _bus.emit("job_resumed", resumed_at=self.resumed_at)
        return restored.sim, restored.state

    # -- save ----------------------------------------------------------
    def save(self, sim: Simulator, state: Any = None) -> core.SnapshotInfo:
        """Write a periodic checkpoint, chaining lineage via ``parent``.

        The simulator's profiler (a wall-clock observer that refuses to
        pickle) is detached for the duration of the write and reattached
        after — checkpointing must compose with ``REPRO_PROFILE``.
        """
        profiler, sim.profiler = sim.profiler, None
        try:
            info = core.save(self.path, sim, state, parent=self.last_id)
        finally:
            sim.profiler = profiler
        self.saves += 1
        self.last_id = info.id
        return info

    def discard(self) -> None:
        """Delete the checkpoint file (done, or it failed verification)."""
        try:
            self.path.unlink()
        except OSError:
            pass

    def reject(self) -> None:
        """Undo a resume whose state the job refused (e.g. the restored
        run was built from different parameters).  Deletes the file and
        clears the resume bookkeeping so the attempt runs fresh."""
        self.discard()
        self.resumed = False
        self.resumed_from = None
        self.resumed_at = None
        self.last_id = None

    def summary(self) -> Optional[Dict[str, Any]]:
        """JSON-clean lineage record for the job's cache entry, or ``None``
        when the slot was never used (no save, no resume)."""
        if not self.saves and not self.resumed:
            return None
        out: Dict[str, Any] = {
            "interval": self.interval,
            "saves": self.saves,
            "resumed": self.resumed,
            "last_id": self.last_id,
        }
        if self.resumed:
            out["resumed_from"] = self.resumed_from
            out["resumed_at"] = self.resumed_at
        return out


_ACTIVE: Optional[CheckpointSlot] = None


@contextmanager
def checkpoint_scope(path: Optional[Union[str, Path]], interval: Optional[float]):
    """Make a :class:`CheckpointSlot` active for the block (or none).

    Yields the slot, or ``None`` when *path*/*interval* is unset — so
    callers can wrap unconditionally and test the yield.
    """
    global _ACTIVE
    slot = (
        CheckpointSlot(path, interval)
        if path is not None and interval is not None
        else None
    )
    prev, _ACTIVE = _ACTIVE, slot
    try:
        yield slot
    finally:
        _ACTIVE = prev


def active_checkpoint() -> Optional[CheckpointSlot]:
    """The slot installed by the executor for this job attempt, if any."""
    return _ACTIVE
