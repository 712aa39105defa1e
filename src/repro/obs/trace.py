"""JSONL trace sink: one schema record per line, atomically written.

The format is deliberately boring — UTF-8 JSON Lines — so traces can be
grepped, streamed, or loaded into pandas without this package.  Writing
goes through :func:`repro.atomic.atomic_write` like the result cache, so
a killed run never leaves a torn trace next to a valid cache entry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from ..atomic import atomic_write
from .records import validate_record

__all__ = ["write_trace", "read_trace", "iter_trace"]


def write_trace(path: Union[str, Path], records: Iterable[dict]) -> Path:
    """Write *records* to *path* as JSON Lines (atomic, validated)."""
    lines = []
    for rec in records:
        validate_record(rec)
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return atomic_write(path, "".join(lines).encode("utf-8"))


def iter_trace(path: Union[str, Path]) -> Iterator[dict]:
    """Stream records from a JSONL trace file, validating each line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from None
            validate_record(rec)
            yield rec


def read_trace(path: Union[str, Path]) -> List[dict]:
    """Load a whole JSONL trace into memory."""
    return list(iter_trace(path))
