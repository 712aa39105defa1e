"""Checkpoint-aware job functions for executor crash-resume tests.

Referenced by dotted-path kind (``"tests.snapshot.jobs:crashy_dumbbell"``)
so both the in-process serial path and forked worker processes resolve
the same code, mirroring ``tests.runner.jobs``.
"""

from __future__ import annotations

import os

from repro.experiments.common import run_dumbbell
from repro.runner import resolve_job
from repro.snapshot import runtime


class _DyingSlot(runtime.CheckpointSlot):
    """Raise right *after* the Nth periodic save lands on disk —
    a crash between checkpoints, as the resume machinery must assume."""

    def __init__(self, slot, die_after):
        super().__init__(slot.path, slot.interval)
        self.die_after = die_after

    def save(self, sim, state=None):
        info = super().save(sim, state)
        if self.saves >= self.die_after:
            raise RuntimeError(f"simulated crash after save #{self.saves}")
        return info


def _arm(params: dict):
    """Pop ``marker``/``die_after`` off *params*; on the first attempt (no
    marker file yet) swap the executor-installed checkpoint slot for a
    dying one.  Returns the active slot (``None``: checkpointing off)."""
    marker = params.pop("marker")
    die_after = int(params.pop("die_after", 2))
    slot = runtime.active_checkpoint()
    if slot is not None and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        slot = runtime._ACTIVE = _DyingSlot(slot, die_after)
    return slot


def crashy_job(params: dict) -> dict:
    """Any runner job (``params["kind"]``), its first attempt dying right
    after its ``die_after``-th checkpoint; reports the wrapped job's
    payload and whether the surviving attempt resumed."""
    params = dict(params)
    job = resolve_job(params.pop("kind"))
    slot = _arm(params)
    payload = job(params)
    return {
        "payload": payload,
        "resumed": bool(slot is not None and slot.resumed),
        "resumed_at": None if slot is None else slot.resumed_at,
    }


def crashy_dumbbell(params: dict) -> dict:
    """A dumbbell job whose first attempt dies mid-measure.

    The first attempt (no marker file yet) swaps the executor-installed
    checkpoint slot for a dying one; the retry runs normally and reports
    whether it resumed.  With checkpointing off (no slot) the job just
    runs clean on the first attempt.
    """
    params = dict(params)
    slot = _arm(params)
    result = run_dumbbell(**params)
    return {
        "resumed": bool(slot is not None and slot.resumed),
        "resumed_at": None if slot is None else slot.resumed_at,
        "events_processed": result.events_processed,
        "mean_queue_pkts": result.mean_queue_pkts,
        "utilization": result.utilization,
        "jain": result.jain,
        "background_pkts": result.background_pkts,
    }
