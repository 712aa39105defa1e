"""Job functions for fleet kill-tolerance tests.

Referenced by dotted-path kind (``"tests.fleet.jobs:slow_once"``) so the
``python -m repro.fleet drain`` subprocesses (and their worker
processes) resolve the same code as the test process.
"""

from __future__ import annotations

import os
import time


def slow_once(params: dict) -> dict:
    """Hang forever on the first attempt, succeed instantly afterwards.

    The first process to run this creates ``marker`` and sleeps well past
    the test timeout — the test SIGKILLs it mid-sleep.  The re-leased
    attempt (marker exists) returns immediately, so a resumed fleet
    converges deterministically.
    """
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(600.0)
    return {"value": params.get("value", 0), "slow": True}


def touch_and_echo(params: dict) -> dict:
    """Record which run computed this point, then echo the input.

    Appends one line to ``log`` per *computation* — the zero-recompute
    assertions count these lines against the journal's ``fresh`` records.
    """
    with open(params["log"], "a") as fh:
        fh.write(f"{params['value']}\n")
    return {"value": params["value"]}
