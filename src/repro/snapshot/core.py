"""Checkpoint and restore of live simulations.

A snapshot captures a :class:`~repro.sim.engine.Simulator` *and
everything hanging off it* — the event heap with its pending callbacks
(bound methods keep their receivers, so queues, links, TCP senders,
monitors and web sessions ride along transitively), the derived RNG
streams mid-sequence, and any harness ``state`` object the caller passes
(the experiment harness passes its whole run context).  Restoring
produces an independent object graph whose continued execution is
bit-identical to the original run — the property the resume goldens in
``tests/snapshot`` pin.

What is **not** captured, by design:

* ``sim.profiler`` — a wall-clock observer; :class:`Simulator` refuses
  to pickle with one attached (detach, snapshot, reattach);
* open file handles — a state object holding one is refused with a
  :class:`SnapshotError` saying it is not picklable;
* the result cache / runner machinery — snapshots are below that layer.

On a pickling failure the error is re-raised as :class:`SnapshotError`
with a diagnosis of *which* scheduled callback or attachment cannot be
serialized (closures and lambdas are the usual culprits), rather than
the unpickler's bare ``TypeError``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..sim.engine import Simulator
from .errors import SnapshotError
from .format import (
    FORMAT_VERSION,
    build_header,
    read_header,
    read_snapshot,
    snapshot_id,
    write_snapshot,
)

__all__ = [
    "SnapshotInfo",
    "Restored",
    "capture_bytes",
    "restore_bytes",
    "save",
    "load",
    "inspect",
    "verify",
    "sim_summary",
]

#: protocol 4 is available on every supported Python and handles the
#: large, cyclic object graphs a warmed-up simulation produces
_PICKLE_PROTOCOL = 4


@dataclass(frozen=True)
class SnapshotInfo:
    """Header facts about one written snapshot."""

    path: Optional[Path]
    id: str
    parent: Optional[str]
    body_bytes: int
    sim_now: float
    events_processed: int


@dataclass
class Restored:
    """A restored simulation: the simulator, the harness state, the header."""

    sim: Simulator
    state: Any
    header: Dict[str, Any]

    @property
    def id(self) -> str:
        """The restored checkpoint's snapshot id (from its header)."""
        return self.header.get("id", "")


def sim_summary(sim: Simulator) -> Dict[str, Any]:
    """JSON-clean summary of a simulator for snapshot headers / diffs."""
    return {
        "now": sim.now,
        "seed": str(sim.seed),
        "events_processed": sim.events_processed,
        "pending": sim.pending(),
        "heap_len": len(sim._heap),
        "seq": sim._seq,
        "streams": sorted(sim._stream_labels),
    }


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture_bytes(sim: Simulator, state: Any = None) -> bytes:
    """Pickle ``{"sim": sim, "state": state}`` with failure diagnostics."""
    root = {"sim": sim, "state": state}
    try:
        return pickle.dumps(root, protocol=_PICKLE_PROTOCOL)
    except SnapshotError:
        raise
    except Exception as exc:  # noqa: BLE001 - rewrap with a diagnosis
        raise _diagnose_failure(sim, state, exc) from exc


def _describe_callback(fn: Any) -> str:
    qualname = getattr(fn, "__qualname__", None) or repr(fn)
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return f"{qualname} (bound to {type(owner).__name__})"
    return qualname


def _diagnose_failure(sim: Simulator, state: Any, exc: Exception) -> SnapshotError:
    """Turn a raw pickling error into a SnapshotError naming the culprit.

    Only runs on the failure path, so the cost of re-pickling individual
    heap entries does not matter.  Each pending callback is probed in
    isolation; the first one that fails is almost always a closure or
    lambda scheduled where a bound method (or ``functools.partial`` of
    one) belongs.
    """
    for entry in sim.live_entries():
        fn, args = entry[2], entry[3]
        try:
            pickle.dumps((fn, args), protocol=_PICKLE_PROTOCOL)
        except SnapshotError as inner:
            return inner
        except Exception:  # noqa: BLE001
            name = getattr(fn, "__qualname__", "")
            hint = (
                " (closures/lambdas cannot be pickled; schedule a bound "
                "method or functools.partial instead)"
                if "<locals>" in name or "<lambda>" in name
                else ""
            )
            return SnapshotError(
                f"cannot snapshot: event at t={entry[0]:.6f} holds an "
                f"unpicklable callback {_describe_callback(fn)}{hint}"
            )
    try:
        pickle.dumps(state, protocol=_PICKLE_PROTOCOL)
    except SnapshotError as inner:
        return inner
    except Exception:  # noqa: BLE001
        return SnapshotError(
            f"cannot snapshot: the attached state object "
            f"({type(state).__name__}) is not picklable: {exc}"
        )
    return SnapshotError(f"cannot snapshot simulation: {exc}")


def restore_bytes(body: bytes) -> Tuple[Simulator, Any]:
    """Unpickle a snapshot body; returns ``(sim, state)``."""
    try:
        root = pickle.loads(body)
    except Exception as exc:  # noqa: BLE001
        raise SnapshotError(f"cannot restore snapshot body: {exc}") from exc
    if not isinstance(root, dict) or "sim" not in root:
        raise SnapshotError("snapshot body has unexpected layout (no 'sim')")
    return root["sim"], root.get("state")


# ----------------------------------------------------------------------
# file API
# ----------------------------------------------------------------------
def save(
    path: Union[str, Path],
    sim: Simulator,
    state: Any = None,
    *,
    label: Optional[str] = None,
    parent: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> SnapshotInfo:
    """Checkpoint *sim* (+ harness *state*) to *path*; returns header facts.

    *parent* records lineage: pass the ``id`` of the snapshot this run
    was itself restored from (the runner does this automatically), so a
    chain of periodic checkpoints is traceable end to end.
    """
    body = capture_bytes(sim, state)
    header = build_header(
        body,
        sim_summary=sim_summary(sim),
        label=label,
        parent=parent,
        meta=meta,
    )
    out = write_snapshot(path, header, body)
    return SnapshotInfo(
        path=out,
        id=header["id"],
        parent=parent,
        body_bytes=len(body),
        sim_now=sim.now,
        events_processed=sim.events_processed,
    )


def load(
    path: Union[str, Path],
    *,
    verify_checksum: bool = True,
    allow_version_mismatch: bool = False,
) -> Restored:
    """Restore a snapshot file into a live ``(sim, state)`` pair.

    A snapshot written by a different package version fails by default:
    pickled internals are not a stable cross-version interface, and a
    silently wrong restore is far worse than a re-run.  Pass
    ``allow_version_mismatch=True`` to try anyway.
    """
    header, body = read_snapshot(path, verify=verify_checksum)
    from .. import __version__

    if header.get("repro_version") != __version__ and not allow_version_mismatch:
        raise SnapshotError(
            f"{path}: snapshot was written by repro "
            f"{header.get('repro_version')}, this is {__version__}; "
            f"re-run from scratch or pass allow_version_mismatch=True"
        )
    sim, state = restore_bytes(body)
    return Restored(sim=sim, state=state, header=header)


def inspect(path: Union[str, Path]) -> Dict[str, Any]:
    """Header of a snapshot file without touching the body."""
    return read_header(path)


def verify(path: Union[str, Path]) -> Dict[str, Any]:
    """Full integrity check: checksum, unpickle, and engine invariants.

    Returns the header augmented with a ``verified`` summary of the
    restored simulator.  Raises :class:`SnapshotError` on any failure.
    """
    header, body = read_snapshot(path, verify=True)
    sim, _state = restore_bytes(body)
    if not isinstance(sim, Simulator):
        raise SnapshotError(f"{path}: body 'sim' is {type(sim).__name__}")
    entries = sim.live_entries()
    if len(entries) != sim.pending():
        raise SnapshotError(
            f"{path}: live-event counter drift: heap holds {len(entries)} "
            f"live entries but pending() reports {sim.pending()}"
        )
    if entries:
        head_time = min(e[0] for e in entries)
        if head_time < sim.now:
            raise SnapshotError(
                f"{path}: event heap contains an entry at t={head_time} "
                f"before sim.now={sim.now}"
            )
        max_seq = max(e[1] for e in entries)
        if max_seq >= sim._seq:
            raise SnapshotError(
                f"{path}: heap sequence {max_seq} >= next sequence {sim._seq}"
            )
    expected_id = snapshot_id(body)
    if header.get("id") != expected_id:
        raise SnapshotError(
            f"{path}: snapshot id {header.get('id')} does not match body "
            f"({expected_id})"
        )
    out = dict(header)
    out["verified"] = sim_summary(sim)
    return out
