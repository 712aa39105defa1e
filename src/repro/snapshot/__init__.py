"""repro.snapshot — deterministic checkpoint / restore.

The subsystem that turns long-horizon simulation into resumable work:

* :func:`save` / :func:`load` — checkpoint a live simulator (plus the
  experiment harness's state object) to a versioned, checksummed file;
  a restored run continues bit-identically to an uninterrupted one.
* :func:`capture_bytes` / :func:`restore_bytes` — the same in memory.
* :mod:`repro.snapshot.runtime` — the checkpoint slot the runner's
  executor installs around each job attempt (periodic checkpoint,
  resume after crash/timeout).
* ``python -m repro.snapshot inspect|verify`` — checkpoint tooling.

See ``docs/ARCHITECTURE.md`` (Snapshot subsystem) for format details
and what is and is not captured.
"""

from .core import (
    Restored,
    SnapshotInfo,
    capture_bytes,
    inspect,
    load,
    restore_bytes,
    save,
    sim_summary,
    verify,
)
from .errors import SnapshotError
from .format import FORMAT_VERSION
from .runtime import (
    CheckpointSlot,
    active_checkpoint,
    checkpoint_scope,
    resolve_checkpoint_interval,
)

__all__ = [
    "FORMAT_VERSION",
    "SnapshotError",
    "SnapshotInfo",
    "Restored",
    "capture_bytes",
    "restore_bytes",
    "save",
    "load",
    "inspect",
    "verify",
    "sim_summary",
    "CheckpointSlot",
    "checkpoint_scope",
    "active_checkpoint",
    "resolve_checkpoint_interval",
]
