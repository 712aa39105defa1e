"""On-disk JSON result cache keyed by :attr:`JobSpec.cache_key`.

Layout: ``<root>/<key[:2]>/<key>.json``, one file per result, written
atomically (:func:`repro.atomic.atomic_write`) so a crashed run can
never leave a half-written entry.  An entry is ``{key, kind, params,
payload, meta}`` and is the job's one record: ``meta`` says what the
fresh attempt cost and observed (``events``, ``wall_time``,
``attempts``, ``phases``, ``peak_rss_kb``, and ``metrics`` /
``profile`` / ``checkpoint`` when on), and ``<key>.trace.jsonl`` beside
it is the trace when ``--trace`` was on.

A hit is one read and one parse, and every sweep served from the cache
or a fleet's store pays it per point: :meth:`ResultCache._file` turns
the key into the entry's file name as a string (the same helper names
it for writes, through :meth:`~ResultCache.path_for`), one unbuffered
``os.read`` returns the bytes, and ``json.loads`` runs once on them.
Reads are defensive: an entry that fails to parse, is not a dict,
carries another ``key`` or has no ``payload`` is a miss and the file is
removed so the entry is rebuilt on the next run; a missing file is a
miss.  A fleet holds its ``done`` jobs to the same test: a resubmitted
job whose entry no longer reads back is queued again
(:meth:`repro.fleet.Fleet.submit`).

Cache invalidation rules (documented in docs/ARCHITECTURE.md): the key
is a **content address** over the full job spec (``kind`` + canonical
params) plus the runner's ``CACHE_SCHEMA`` — editing simulation
parameters or bumping the payload schema starts a fresh namespace, while
package-version bumps do *not*: a point computed once is a hit for every
later sweep that asks for the same content.  Old entries are inert
files — delete the cache root to reclaim space.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..atomic import atomic_write
from .spec import JobSpec

__all__ = [
    "CHECKPOINT_SUFFIX",
    "TRACE_SUFFIX",
    "ResultCache",
    "default_cache_dir",
    "resolve_cache",
]

_DISABLE_VALUES = {"0", "off", "false", "no"}

#: checkpoint filename suffix (sibling of the cache entry)
CHECKPOINT_SUFFIX = ".ckpt"
#: trace filename suffix (sibling of the cache entry)
TRACE_SUFFIX = ".trace.jsonl"


#: first read size; an entry this large or larger is read on to EOF
_READ_CHUNK = 1 << 16


def _read_bytes(path: str) -> bytes:
    """The whole file at *path*, read without a file object.

    An entry is ~1 kB, so one ``read`` of a regular file returns all of
    it; only an entry that fills the first chunk is read on to EOF.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, _READ_CHUNK)
        if len(data) == _READ_CHUNK:
            parts = [data]
            while parts[-1]:
                parts.append(os.read(fd, _READ_CHUNK))
            data = b"".join(parts)
    finally:
        os.close(fd)
    return data


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """Directory of cached job results, addressed by content hash.

    ``stats`` counts this process's ``get`` hits/misses and ``put`` calls
    (advisory; the fleet journal's ``done`` records are the durable truth).
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self._prefix = os.path.join(self.root, "")
        self.stats: Dict[str, int] = {"hits": 0, "misses": 0, "puts": 0}

    def _file(self, key: str, suffix: str = ".json") -> str:
        """``<root>/<key[:2]>/<key><suffix>``: the one place a key
        becomes a file name, for reads and writes alike."""
        return f"{self._prefix}{key[:2]}{os.sep}{key}{suffix}"

    def path_for(self, spec: JobSpec) -> Path:
        """Cache-entry path for *spec*: ``<root>/<key[:2]>/<key>.json``."""
        return Path(self._file(spec.cache_key))

    def trace_path_for(self, spec: JobSpec) -> Path:
        """Sibling JSONL trace path for *spec* (written with ``--trace``)."""
        return Path(self._file(spec.cache_key, TRACE_SUFFIX))

    def checkpoint_path_for(self, spec: JobSpec) -> Path:
        """Sibling checkpoint path for *spec* (see :mod:`repro.snapshot`).

        The checkpoint shares the cache entry's key on purpose: a resumed
        run is bit-identical to a straight-through one, so the checkpoint
        is an implementation detail of producing the *same* cache entry,
        and it survives retries of the same spec only.
        """
        return Path(self._file(spec.cache_key, CHECKPOINT_SUFFIX))

    def get(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """Return the stored entry dict for *spec*, or ``None`` on a miss.

        A corrupt or mismatched file counts as a miss and is deleted so
        the entry gets rebuilt by the caller.
        """
        entry = self._read(spec.cache_key)
        self.stats["misses" if entry is None else "hits"] += 1
        return entry

    def _read(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._file(key)
        try:
            entry = json.loads(_read_bytes(path).decode("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._discard(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key
            or "payload" not in entry
        ):
            self._discard(path)
            return None
        return entry

    def put(self, spec: JobSpec, payload: Any, meta: Optional[Dict] = None) -> Path:
        """Atomically persist *payload* for *spec*; returns the file path."""
        self.stats["puts"] += 1
        entry = {
            "key": spec.cache_key,
            "kind": spec.kind,
            "params": spec.params,
            "payload": payload,
            "meta": meta or {},
        }
        return atomic_write(self.path_for(spec), json.dumps(entry).encode("utf-8"))

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache root={self.root}>"


def resolve_cache(cache) -> Optional[ResultCache]:
    """Normalize the user-facing ``cache`` argument.

    ``None``
        use the default on-disk cache, unless disabled via
        ``REPRO_CACHE=0`` (also ``off``/``false``/``no``);
    ``False``
        caching off;
    :class:`ResultCache`
        used as-is;
    str / :class:`~pathlib.Path`
        cache rooted at that directory.
    """
    if cache is None:
        flag = os.environ.get("REPRO_CACHE", "").strip().lower()
        if flag in _DISABLE_VALUES:
            return None
        return ResultCache()
    if cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
