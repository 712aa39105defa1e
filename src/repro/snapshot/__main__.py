"""Checkpoint tooling CLI.

    PYTHONPATH=src python -m repro.snapshot inspect  FILE [--json]
    PYTHONPATH=src python -m repro.snapshot verify   FILE [--json]

``inspect`` reads only the plain-text header (works even when the body
no longer unpickles); ``verify`` additionally checksums and restores the
body and checks engine invariants.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

from . import core
from .errors import SnapshotError

def _print_header(header: Dict[str, Any]) -> None:
    sim = header.get("sim") or {}
    print(f"id:             {header.get('id')}")
    print(f"parent:         {header.get('parent')}")
    if "label" in header:
        print(f"label:          {header['label']}")
    print(f"format:         {header.get('format')}")
    print(f"repro version:  {header.get('repro_version')} "
          f"(python {header.get('python')})")
    print(f"body:           {header.get('body_bytes'):,} bytes  "
          f"sha256 {str(header.get('body_sha256'))[:16]}…")
    if sim:
        print(f"sim time:       {sim.get('now')}")
        print(f"events:         {sim.get('events_processed'):,} processed, "
              f"{sim.get('pending'):,} pending "
              f"({sim.get('heap_len'):,} heap entries)")
        print(f"seed:           {sim.get('seed')}")
        streams = sim.get("streams") or []
        shown = ", ".join(streams[:8]) + (" …" if len(streams) > 8 else "")
        print(f"rng streams:    {len(streams)} ({shown})")
    if header.get("meta"):
        print(f"meta:           {json.dumps(header['meta'], sort_keys=True)}")


def cmd_inspect(args) -> int:
    """``inspect``: print the header without unpickling the body."""
    header = core.inspect(args.file)
    if args.json:
        print(json.dumps(header, indent=2, sort_keys=True))
    else:
        _print_header(header)
    return 0


def cmd_verify(args) -> int:
    """``verify``: checksum, restore the body, and check invariants."""
    header = core.verify(args.file)
    if args.json:
        print(json.dumps(header, indent=2, sort_keys=True))
    else:
        _print_header(header)
        print(f"verified:       ok (body restored, invariants hold)")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    ap = argparse.ArgumentParser(
        prog="repro.snapshot",
        description="Inspect and verify simulation checkpoints",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="print a checkpoint's header")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="raw JSON header")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser(
        "verify", help="checksum + restore + engine-invariant check"
    )
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="raw JSON output")
    p.set_defaults(fn=cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
