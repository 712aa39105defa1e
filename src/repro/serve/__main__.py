"""Dashboard CLI.

Usage::

    python -m repro.serve <run-dir> [--host H] [--port P]

Serves the live dashboard for *run-dir* (a runner cache directory —
the ``--cache-dir`` of an experiments run — or a fleet directory).
Point a browser at the printed URL.  The job table has one row per
cache entry, with the live state of ``events.jsonl`` laid over it when a
sweep writes one (``REPRO_BUS=1``), so a bus-off directory shows its
finished jobs too.  Stop with Ctrl-C.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .app import make_server


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a live (or post-hoc) dashboard for a run directory.",
    )
    parser.add_argument("run_dir", help="runner cache directory to watch")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8350,
                        help="port to bind (0 = ephemeral; default 8350)")
    args = parser.parse_args(argv)

    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"error: {run_dir} is not a directory", file=sys.stderr)
        return 2
    server = make_server(run_dir, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving {run_dir} on http://{host}:{port}/  (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nstopped")
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
