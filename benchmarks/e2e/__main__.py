"""``python -m benchmarks.e2e {run,trace,compare,repin}`` — see :mod:`.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
