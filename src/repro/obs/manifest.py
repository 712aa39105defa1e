"""Per-job run manifests: what ran, how long, and what it measured.

One manifest is written next to each cache entry
(``<key>.manifest.json`` beside ``<key>.json``) by the runner's
executor after a fresh (non-cached) job completes.  Manifests are the
durable forensic record the report CLI reads: even after the payload is
consumed and the progress line has scrolled away, the manifest still
says which spec hash/seed produced the row, how wall time split across
phases, how many events the simulator processed, the process's peak
RSS, and — when ``--obs`` was on — the final metrics snapshot.

Schema v1 fields:

==================  ===================================================
``schema``          manifest schema version (this module's constant)
``key``             the job's :attr:`JobSpec.cache_key` (spec hash)
``kind``            registered job kind (e.g. ``dumbbell``)
``params``          full JSON params, including ``seed`` and ``scheme``
``seed``/``scheme`` hoisted copies for cheap filtering
``repro_version``   package version that produced the result
``wall_time``       job wall-clock seconds (successful attempt only)
``events``          simulator events processed
``attempts``        attempts consumed (1 = first try)
``phases``          phase name -> wall seconds (setup/warmup/measure)
``peak_rss_kb``     high-water resident set size of the process that ran
                    the job, up to and including it (a worker's mark
                    covers the jobs it ran before this one)
``result``          scalar fields of the job payload (drop_rate, ...)
``metrics``         metrics-registry snapshot (with ``--obs``)
``profile``         sampling-profiler summary (with ``REPRO_PROFILE``)
``trace_file``      basename of the sibling JSONL trace (with --trace)
``checkpoint``      checkpoint lineage (interval, saves, resume facts)
==================  ===================================================
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import __version__
from ..atomic import atomic_write

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "build_validation_manifest",
    "write_manifest",
    "load_manifests",
    "load_manifests_with_warnings",
]

#: bump when manifest fields change incompatibly
MANIFEST_SCHEMA = 1

#: manifest filename suffix (sibling of the cache entry)
MANIFEST_SUFFIX = ".manifest.json"
#: trace filename suffix (sibling of the cache entry)
TRACE_SUFFIX = ".trace.jsonl"


def _scalar_fields(payload: Any) -> Optional[Dict[str, Any]]:
    """Copy the scalar (summarizable) fields out of a dict payload."""
    if not isinstance(payload, dict):
        return None
    return {
        k: v
        for k, v in payload.items()
        if isinstance(v, (int, float, str, bool)) or v is None
    }


def build_manifest(
    *,
    key: str,
    kind: str,
    params: Dict[str, Any],
    wall_time: float,
    events: int,
    attempts: int,
    payload: Any = None,
    obs_meta: Optional[dict] = None,
    trace_file: Optional[str] = None,
) -> dict:
    """Assemble a schema-v1 manifest dict (JSON-clean)."""
    manifest: dict = {
        "schema": MANIFEST_SCHEMA,
        "key": key,
        "kind": kind,
        "params": dict(params),
        "seed": params.get("seed"),
        "scheme": params.get("scheme"),
        "repro_version": __version__,
        "wall_time": wall_time,
        "events": events,
        "attempts": attempts,
    }
    result = _scalar_fields(payload)
    if result is not None:
        manifest["result"] = result
    if obs_meta:
        for field in ("phases", "peak_rss_kb", "metrics", "profile", "checkpoint"):
            if obs_meta.get(field) is not None:
                manifest[field] = obs_meta[field]
    if trace_file is not None:
        manifest["trace_file"] = trace_file
    return manifest


def build_validation_manifest(
    *,
    figure: str,
    tier: str,
    status: str,
    deviations: Dict[str, Optional[float]],
    wall_time: float,
    error: Optional[str] = None,
) -> dict:
    """Assemble a manifest for one paper-fidelity figure check.

    Validation manifests share the schema-v1 envelope so
    :func:`load_manifests` and the report CLI pick them up alongside
    job manifests; ``kind`` is ``"validation"`` and the figure-specific
    facts — per-metric signed percent deviations from their targets and
    the pass/gap/fail status — live under the ``validation`` key.
    Written by ``python -m repro.validate run`` into the run directory's
    ``validation/`` folder.
    """
    return {
        "schema": MANIFEST_SCHEMA,
        "kind": "validation",
        "repro_version": __version__,
        "wall_time": wall_time,
        "validation": {
            "figure": figure,
            "tier": tier,
            "status": status,
            "error": error,
            "deviations_pct": dict(deviations),
        },
    }


def write_manifest(path: Union[str, Path], manifest: dict) -> Path:
    """Atomically write *manifest* as JSON."""
    return atomic_write(path, json.dumps(manifest, sort_keys=True).encode("utf-8"))


def load_manifests(run_dir: Union[str, Path]) -> List[dict]:
    """Load every ``*.manifest.json`` under *run_dir* (recursively).

    Unparseable files are skipped (a torn write from a killed run must
    not break reporting on the rest); callers who want to surface the
    skips use :func:`load_manifests_with_warnings`.  Each loaded
    manifest gains a ``_path`` key pointing back at its file so callers
    can find the sibling trace.
    """
    manifests, _warnings = load_manifests_with_warnings(run_dir)
    return manifests


def load_manifests_with_warnings(
    run_dir: Union[str, Path],
) -> Tuple[List[dict], List[dict]]:
    """Like :func:`load_manifests`, plus one warning record per skipped file.

    Crashed or killed runs leave corrupt, truncated, or shape-invalid
    manifests behind; reports and the live dashboard must keep working
    on the healthy remainder, so each bad file is skipped and described
    by a warning record ``{"path": <file>, "error": <why>}`` instead of
    raising.
    """
    run_dir = Path(run_dir)
    manifests: List[dict] = []
    warnings: List[dict] = []
    for path in sorted(run_dir.rglob(f"*{MANIFEST_SUFFIX}")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            warnings.append({
                "path": str(path),
                "error": f"{type(exc).__name__}: {exc}",
            })
            continue
        if not isinstance(manifest, dict):
            warnings.append({
                "path": str(path),
                "error": f"manifest is {type(manifest).__name__}, not an object",
            })
            continue
        manifest["_path"] = str(path)
        manifests.append(manifest)
    return manifests, warnings
