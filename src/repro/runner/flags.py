"""The runner's command-line flags, shared by the CLIs that drive sweeps.

``python -m repro.experiments`` and ``python -m repro.validate`` both
take ``-j/--workers``, ``--no-cache``, ``--cache-dir`` and
``--progress``, and both hand them to the runner the same way: as the
``REPRO_*`` environment knobs every ``run_jobs`` caller already reads
(docs/ENVIRONMENT.md), scoped to the command so nothing leaks into the
calling process — the CLIs' ``main()`` functions are also called from
tests.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator

__all__ = ["add_runner_flags", "runner_env", "scoped_env"]


def add_runner_flags(parser, workers_default: str = "$REPRO_WORKERS") -> None:
    """Add the four runner flags to an ``argparse`` parser."""
    parser.add_argument(
        "-j", "--workers", type=int, default=None, metavar="N",
        help="worker processes for grid-shaped figures "
             f"(default: {workers_default}; 0 = serial)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this run")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument(
        "--progress", action="store_true",
        help="log per-job runner progress (jobs done/cached/failed, events/s)")


def runner_env(args) -> Dict[str, str]:
    """Translate parsed :func:`add_runner_flags` flags into environment knobs."""
    env: Dict[str, str] = {}
    if args.workers is not None:
        env["REPRO_WORKERS"] = str(args.workers)
    if args.no_cache:
        env["REPRO_CACHE"] = "0"
    if args.cache_dir:
        env["REPRO_CACHE_DIR"] = args.cache_dir
    if args.progress:
        env["REPRO_PROGRESS"] = "1"
    return env


@contextlib.contextmanager
def scoped_env(updates: Dict[str, str]) -> Iterator[None]:
    """Apply environment overrides for the duration of the block only."""
    saved = {k: os.environ.get(k) for k in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
