"""On-disk snapshot container: versioned header + checksummed pickle body.

A snapshot file is three concatenated parts::

    REPROSNAP\n                  magic line (never changes)
    {"format": N, ...}\n         one-line JSON header, UTF-8 (N: FORMAT_VERSION)
    <pickle body>                the simulation object graph

The header is plain text on purpose: ``head -2 file.ckpt`` tells you
what a checkpoint contains without unpickling anything, and the CLI's
``inspect`` command works on files whose body no longer loads (e.g.
written by an incompatible package version).  Integrity is a SHA-256
over the body recorded in the header and verified on load; a truncated
or bit-flipped checkpoint fails with :class:`SnapshotError` instead of
feeding garbage to the unpickler.

Writes are atomic (:func:`repro.atomic.atomic_write`), like the result
cache's: a run killed mid-checkpoint leaves the previous checkpoint
intact, which is exactly what crash-resume needs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..atomic import atomic_write
from .errors import SnapshotError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "snapshot_id",
    "write_snapshot",
    "read_header",
    "read_snapshot",
]

#: bump when the container layout or body schema changes incompatibly
#: (2: AQM queues and PERT senders keep their law state in a
#: :mod:`repro.laws` object, so a version-1 body would restore half-shaped;
#: 3: the harness state is ``experiments.common.PacketRun`` for every
#: packet scenario, so a version-2 body names a class that is gone;
#: 4: a component's ``obs`` is its own instrument and ``PacketRun`` carries
#: the recorder, so a version-3 body's senders and collector are mis-shaped;
#: 5: the simulator no longer keeps a registry of the RNG streams it handed
#: out, so a version-4 body carries a slot the engine does not have;
#: 6: packets, sinks, PERT senders and background sources lost the state
#: of options no run used, so a version-5 body carries attributes the
#: classes no longer read;
#: 7: packets lost ``enqueue_time`` and ``hops``, which nothing read, so a
#: version-6 body carries slots the class does not have;
#: 8: background sources lost their macro-packet factor and offered-packet
#: counter with the batched and evenly spaced injection no run uses, so a
#: version-7 body carries attributes the class no longer reads)
FORMAT_VERSION = 8

MAGIC = b"REPROSNAP\n"

#: hex digits of the body SHA-256 used as the snapshot's identity
_ID_LEN = 16


def snapshot_id(body: bytes) -> str:
    """Content-derived identity of a snapshot (prefix of the body hash)."""
    return hashlib.sha256(body).hexdigest()[:_ID_LEN]


def build_header(
    body: bytes,
    *,
    sim_summary: Optional[Dict[str, Any]] = None,
    label: Optional[str] = None,
    parent: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the JSON header for *body* (hash, lineage, sim summary)."""
    from .. import __version__

    header: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "repro_version": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "body_bytes": len(body),
        "body_sha256": hashlib.sha256(body).hexdigest(),
        "id": snapshot_id(body),
        "parent": parent,
    }
    if label is not None:
        header["label"] = label
    if sim_summary is not None:
        header["sim"] = sim_summary
    if meta:
        header["meta"] = dict(meta)
    return header


def write_snapshot(path: Union[str, Path], header: Dict[str, Any], body: bytes) -> Path:
    """Atomically write a snapshot file; returns the final path."""
    header_line = json.dumps(header, sort_keys=True).encode("utf-8")
    return atomic_write(path, MAGIC + header_line + b"\n" + body)


def read_header(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate only the header of a snapshot file (no unpickle)."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise SnapshotError(
                    f"{path}: not a repro snapshot (bad magic {magic!r})"
                )
            header_line = fh.readline()
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot: {exc}") from None
    try:
        header = json.loads(header_line.decode("utf-8"))
    except ValueError as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header: {exc}") from None
    if not isinstance(header, dict) or "format" not in header:
        raise SnapshotError(f"{path}: snapshot header missing 'format' field")
    if header["format"] != FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot format {header['format']} is not supported "
            f"by this package (expected {FORMAT_VERSION})"
        )
    return header


def read_snapshot(
    path: Union[str, Path], *, verify: bool = True
) -> Tuple[Dict[str, Any], bytes]:
    """Read header + body; with *verify*, check the body checksum."""
    path = Path(path)
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.readline()  # magic
        fh.readline()  # header
        body = fh.read()
    if verify:
        expected = header.get("body_sha256")
        actual = hashlib.sha256(body).hexdigest()
        if actual != expected:
            raise SnapshotError(
                f"{path}: body checksum mismatch (file is truncated or "
                f"corrupt): expected {expected}, got {actual}"
            )
        if header.get("body_bytes") != len(body):
            raise SnapshotError(
                f"{path}: body length mismatch: header says "
                f"{header.get('body_bytes')} bytes, file has {len(body)}"
            )
    return header, body
