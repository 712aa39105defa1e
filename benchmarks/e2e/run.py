"""Contract entry point: ``python3 benchmarks/e2e/run.py --workload ...``.

Run as a plain script (no ``PYTHONPATH`` needed): puts the checkout root
on ``sys.path`` so the package imports under its real name, then hands
over to :func:`benchmarks.e2e.cli.main`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    raise SystemExit(main())
