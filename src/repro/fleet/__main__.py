"""``python -m repro.fleet`` — operate a fleet directory from the shell.

Subcommands mirror the :class:`~repro.fleet.scheduler.Fleet` verbs::

    python -m repro.fleet submit  RUNS/fleet --jobs jobs.json --sweep fig7
    python -m repro.fleet drain   RUNS/fleet --workers 4
    python -m repro.fleet status  RUNS/fleet --json
    python -m repro.fleet resume  RUNS/fleet --workers 4

``jobs.json`` is a JSON array of ``{"kind": ..., "params": {...}}``
objects (``-`` reads the array from stdin), i.e. exactly the runner's
job vocabulary — any registered job kind can be fleeted.  ``submit`` and
``drain`` are separate processes on purpose: the kill-tolerance story is
"submit once, drain from as many machines/terminals as you like, kill
any of them, ``resume``" — all coordination lives in the fleet
directory, none in any single process.  ``status`` prints
:meth:`~repro.fleet.queue.JobQueue.status`, folded from the journal —
the same dict ``python -m repro.obs report`` renders for the directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .queue import DEFAULT_MAX_ATTEMPTS, DEFAULT_TTL
from .scheduler import Fleet

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    """The ``repro.fleet`` argument parser (split out for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Operate a crash-safe fleet sweep directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fleet_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("root", help="fleet directory (created if missing)")
        p.add_argument("--store", default=None,
                       help="result store directory (default: <root>/store; "
                            "may point at an existing runner cache)")
        p.add_argument("--no-bus", action="store_true",
                       help="disable the fleet telemetry bus")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")

    p = sub.add_parser("submit", help="enqueue jobs as one sweep")
    fleet_args(p)
    p.add_argument("--jobs", required=True,
                   help="path to a JSON array of {kind, params} objects "
                        "('-' reads stdin)")
    p.add_argument("--sweep", default=None,
                   help="sweep name (default: auto-generated)")
    p.add_argument("--priority", type=int, default=0,
                   help="sweep priority; higher drains first (default 0)")

    for name, help_text in (
        ("drain", "run attempts until every job is terminal"),
        ("resume", "requeue expired leases, then drain"),
    ):
        p = sub.add_parser(name, help=help_text)
        fleet_args(p)
        p.add_argument("--workers", type=int, default=0,
                       help="worker processes kept for the drain, one "
                            "attempt each at a time, replaced after a "
                            "failed one (0 = drain in-process)")
        p.add_argument("--ttl", type=float, default=DEFAULT_TTL,
                       help=f"lease TTL seconds (default {DEFAULT_TTL})")
        p.add_argument("--max-attempts", type=int,
                       default=DEFAULT_MAX_ATTEMPTS,
                       help="lease attempts before a job fails terminally "
                            f"(default {DEFAULT_MAX_ATTEMPTS})")

    p = sub.add_parser("status", help="print the journal's queue summary")
    fleet_args(p)
    return parser


def _open_fleet(args: argparse.Namespace) -> Fleet:
    """Build the :class:`Fleet` an invocation addresses."""
    kwargs = {}
    if getattr(args, "ttl", None) is not None:
        kwargs["ttl"] = args.ttl
    if getattr(args, "max_attempts", None) is not None:
        kwargs["max_attempts"] = args.max_attempts
    return Fleet(args.root, store=args.store,
                 bus=False if args.no_bus else None, **kwargs)


def _load_jobs(source: str) -> List[tuple]:
    """Read a ``{kind, params}`` array from *source* (path or ``-``)."""
    if source == "-":
        raw = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = fh.read()
    data = json.loads(raw)
    if not isinstance(data, list):
        raise SystemExit("--jobs must be a JSON array of {kind, params}")
    jobs = []
    for i, item in enumerate(data):
        if (not isinstance(item, dict) or "kind" not in item
                or not isinstance(item.get("params", {}), dict)):
            raise SystemExit(f"--jobs entry {i} is not a {{kind, params}} object")
        jobs.append((item["kind"], item.get("params", {})))
    return jobs


def _print(payload, as_json: bool) -> None:
    """Emit *payload* as JSON or a readable key: value block."""
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    fleet = _open_fleet(args)
    if args.command == "submit":
        receipt = fleet.submit(_load_jobs(args.jobs), sweep=args.sweep,
                               priority=args.priority)
        _print(receipt.summary(), args.json)
        return 0
    if args.command in ("drain", "resume"):
        run = fleet.resume if args.command == "resume" else fleet.drain
        counts = run(workers=args.workers)
        _print(counts, args.json)
        return 1 if counts.get("failed") else 0
    if args.command == "status":
        status = fleet.status()
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(f"fleet: {status['root']}")
            print(f"counts: {status['counts']}")
            print(f"computed: {status['computed']}")
            print(f"requeues: {status['requeues']}")
            print(f"workers: {status['workers']}")
            print(f"drained: {status['drained']}")
            for sweep, per in sorted(status["sweeps"].items()):
                print(f"sweep {sweep}: {per}")
        return 0
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
