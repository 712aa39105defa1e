"""On-disk JSON result cache keyed by :attr:`JobSpec.cache_key`.

Layout: ``<root>/<key[:2]>/<key>.json``, one file per result, written
atomically (tmp file + ``os.replace``) so a crashed run can never leave a
half-written entry.  Reads are defensive: anything that fails to parse or
fails basic shape/key validation is treated as a miss and the corrupt
file is removed so the entry is rebuilt on the next run.

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
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..obs.manifest import MANIFEST_SUFFIX, TRACE_SUFFIX
from .spec import JobSpec

__all__ = [
    "CHECKPOINT_SUFFIX",
    "ResultCache",
    "default_cache_dir",
    "resolve_cache",
]

_DISABLE_VALUES = {"0", "off", "false", "no"}

#: checkpoint filename suffix (sibling of the cache entry)
CHECKPOINT_SUFFIX = ".ckpt"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _atomic_dump(obj: Dict, path: Path) -> None:
    """JSON-dump *obj* to *path* via the tmp-file + rename pattern."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Directory of cached job results, addressed by content hash.

    ``stats`` counts this process's ``get`` hits/misses and ``put`` calls
    (advisory; the fleet journal's ``done`` records are the durable truth).
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self.stats: Dict[str, int] = {"hits": 0, "misses": 0, "puts": 0}

    def path_for(self, spec: JobSpec) -> Path:
        """Cache-entry path for *spec*: ``<root>/<key[:2]>/<key>.json``."""
        key = spec.cache_key
        return self.root / key[:2] / f"{key}.json"

    def manifest_path_for(self, spec: JobSpec) -> Path:
        """Sibling run-manifest path for *spec* (see :mod:`repro.obs.manifest`)."""
        key = spec.cache_key
        return self.root / key[:2] / f"{key}{MANIFEST_SUFFIX}"

    def trace_path_for(self, spec: JobSpec) -> Path:
        """Sibling JSONL trace path for *spec* (written with ``--trace``)."""
        key = spec.cache_key
        return self.root / key[:2] / f"{key}{TRACE_SUFFIX}"

    def checkpoint_path_for(self, spec: JobSpec) -> Path:
        """Sibling checkpoint path for *spec* (see :mod:`repro.snapshot`).

        The checkpoint shares the cache entry's key on purpose: a resumed
        run is bit-identical to a straight-through one, so the checkpoint
        is an implementation detail of producing the *same* cache entry,
        and it survives retries of the same spec only.
        """
        key = spec.cache_key
        return self.root / key[:2] / f"{key}{CHECKPOINT_SUFFIX}"

    def get(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """Return the stored entry dict for *spec*, or ``None`` on a miss.

        A corrupt or mismatched file counts as a miss and is deleted so
        the entry gets rebuilt by the caller.
        """
        entry = self._read(spec)
        self.stats["misses" if entry is None else "hits"] += 1
        return entry

    def _read(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        path = self.path_for(spec)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._discard(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != spec.cache_key
            or "payload" not in entry
        ):
            self._discard(path)
            return None
        return entry

    def put(self, spec: JobSpec, payload: Any, meta: Optional[Dict] = None) -> Path:
        """Atomically persist *payload* for *spec*; returns the file path."""
        self.stats["puts"] += 1
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": spec.cache_key,
            "kind": spec.kind,
            "params": spec.params,
            "payload": payload,
            "meta": meta or {},
        }
        _atomic_dump(entry, path)
        return path

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
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
