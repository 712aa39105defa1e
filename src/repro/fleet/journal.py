"""Crash-safe append-only operation log backing the fleet job queue.

The journal is a JSON Lines file of queue *operations* (submit / lease /
renew / done / failed / requeue).  Queue state is never stored — it is
always reconstructed by replaying the journal, which is what makes the
queue kill-tolerant: any process can die at any byte and the survivors
(or a later ``python -m repro.fleet resume``) rebuild exactly the state
the durable prefix of the log describes.

Concurrency and crash-safety rules:

* **Writers serialize on ``flock``** over a sibling ``journal.lock``
  file.  Unlike the telemetry bus (lock-free ``O_APPEND`` lines), queue
  mutations are read-modify-write — a lease must observe the latest
  state before claiming a job — so a real mutex is required, and
  ``flock`` gives one that evaporates with its holder: a worker killed
  with ``SIGKILL`` while holding the lock does not wedge the queue.
* **Torn tails are repaired, not fatal.**  A writer killed mid-append
  can leave a final line without a trailing newline.  The next writer
  (under the lock) first terminates such a tail with a newline so its
  own record starts on a fresh line; replay skips the unparseable
  fragment.  The lost operation was never durable, and every operation
  is safe to lose: an un-journaled lease expires implicitly, an
  un-journaled ``done`` re-leases into a content-addressed store hit.
* **Replay is incremental.**  Readers go through the bus's
  :class:`~repro.obs.bus.JsonlTail` (byte offset, partial tail held
  back), so syncing a multi-megabyte journal costs only the new bytes.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..obs.bus import JsonlTail

__all__ = ["JOURNAL_SCHEMA", "JOURNAL_FILENAME", "OPS", "Journal"]

#: bump when the operation vocabulary / fields change incompatibly
JOURNAL_SCHEMA = 1

#: journal filename inside a fleet directory
JOURNAL_FILENAME = "journal.jsonl"

#: operation -> required fields (beyond v/op/ts)
OPS: Dict[str, tuple] = {
    "submit": ("key", "kind", "params", "sweep", "priority"),
    "lease": ("key", "worker", "expires"),
    "renew": ("key", "worker", "expires"),
    "done": ("key", "worker", "store"),
    "failed": ("key", "worker", "error"),
    "requeue": ("key", "reason"),
}


def _validate(rec: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless *rec* is a well-formed journal record."""
    if not isinstance(rec, dict):
        raise ValueError(f"journal record must be a dict, got {type(rec).__name__}")
    if rec.get("v") != JOURNAL_SCHEMA:
        raise ValueError(f"unsupported journal schema {rec.get('v')!r}")
    op = rec.get("op")
    required = OPS.get(op)
    if required is None:
        raise ValueError(f"unknown journal op {op!r}")
    missing = [f for f in required if f not in rec]
    if missing:
        raise ValueError(f"journal op {op!r} missing fields {missing}")


class Journal:
    """One fleet directory's operation log plus its writer lock.

    Each process (every submitter and drain) holds its own :class:`Journal`
    over the same directory.  All mutations go through
    :meth:`append` *inside* a :meth:`locked` block, after syncing state
    from the log — the lock is what upgrades "append-only file" into
    "linearizable state machine".
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.path = self.root / JOURNAL_FILENAME
        self.lock_path = self.root / "journal.lock"
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock_fd: Optional[int] = None
        self._tail = JsonlTail(self.path)

    # -- locking -------------------------------------------------------
    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the exclusive writer lock for the block (reentrant-free).

        The lock lives in a separate ``journal.lock`` file so that the
        journal itself is only ever opened for append/read; ``flock``
        dies with the holding process, so a ``kill -9`` mid-transition
        can stall nobody.
        """
        fd = os.open(str(self.lock_path), os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            self._lock_fd = fd
            try:
                yield
            finally:
                self._lock_fd = None
                # explicit: a process forked meanwhile by another thread
                # inherits fd, and our close alone would leave it the lock
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # -- writing -------------------------------------------------------
    def append(self, op: str, **fields) -> Dict[str, Any]:
        """Validate and durably append one operation record.

        Must be called while :meth:`locked` is held (enforced) — the
        append is preceded by a torn-tail repair, and the caller is
        expected to have synced and validated the transition against
        current state first.
        """
        if self._lock_fd is None:
            raise RuntimeError("Journal.append requires the journal lock; "
                               "wrap the transition in `with journal.locked():`")
        rec = {"v": JOURNAL_SCHEMA, "op": op, "ts": time.time()}
        rec.update(fields)
        _validate(rec)
        data = (json.dumps(rec, sort_keys=True) + "\n").encode("utf-8")
        # O_RDWR (not O_WRONLY): the torn-tail repair reads the last byte
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            self._repair_tail(fd)
            os.write(fd, data)
        finally:
            os.close(fd)
        return rec

    @staticmethod
    def _repair_tail(fd: int) -> None:
        """Terminate a torn final line so the next record parses cleanly.

        A writer killed mid-``write`` leaves a partial line; without this
        newline the next append would concatenate onto the fragment and
        corrupt *two* records instead of losing the already-lost one.
        """
        size = os.lseek(fd, 0, os.SEEK_END)
        if size == 0:
            return
        os.lseek(fd, size - 1, os.SEEK_SET)
        if os.read(fd, 1) != b"\n":
            os.lseek(fd, 0, os.SEEK_END)
            os.write(fd, b"\n")

    # -- reading -------------------------------------------------------
    def read_new(self) -> List[Dict[str, Any]]:
        """Return records appended since the last call (incremental replay).

        Unparseable lines — the torn tail of a killed writer, or its
        newline-repaired fragment — are skipped: they were never durable
        operations.  A final line still missing its newline is buffered
        until a later read completes it.
        """
        return self._tail.records(_validate)

    def rewind(self) -> None:
        """Forget the read position (the next :meth:`read_new` replays all)."""
        self._tail = JsonlTail(self.path)

    def read_all(self) -> List[Dict[str, Any]]:
        """Full replay from byte zero, independent of the read position."""
        return Journal(self.root).read_new()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Journal path={self.path} offset={self._tail.offset}>"
