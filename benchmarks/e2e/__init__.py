"""End-to-end and per-layer benchmark of the packet, fluid and sweep paths.

The contract entry point is ``python3 benchmarks/e2e/run.py --workload W
--seed N --seconds S --trace 0|1`` (declared in ``BENCHMARK.json``); the
developer CLI is ``PYTHONPATH=src python -m benchmarks.e2e
{run,trace,compare,repin}``.  See ``README.md`` in this directory for the
metric glossary, the workload rationale and the noise measurements behind
the calibrated-median timing method.

Nothing here touches ``src/``: every number is taken from outside, through
the repo's public seams.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: the checkout root (``benchmarks/e2e/__init__.py`` is two levels below it)
ROOT = Path(__file__).resolve().parents[2]


def bootstrap() -> None:
    """Make ``repro`` importable here and in every child process.

    Entry points call this before importing anything from ``repro``; the
    environment variable is what spawn-start children and the set-up
    probes inherit.  Exits (non-zero, no result) when the program is absent.
    """
    src = str(ROOT / "src")
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"benchmarks.e2e: nothing to measure, {src}/repro is missing")
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + [p for p in parts if p])
