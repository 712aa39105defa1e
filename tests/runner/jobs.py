"""Job functions for runner fault-injection tests.

Referenced by dotted-path kind (``"tests.runner.jobs:boom"``) so both the
in-process serial path and forked worker processes can resolve them.
"""

from __future__ import annotations

import os
import pathlib
import time


def echo(params: dict) -> dict:
    """Trivially succeed, returning the input value."""
    return {"value": params["value"]}


def events(params: dict) -> dict:
    """Succeed while reporting fake simulator-event telemetry."""
    return {"value": params["value"], "events_processed": params.get("events", 100)}


def boom(params: dict) -> dict:
    """Always raise."""
    raise RuntimeError("injected failure")


def sleepy(params: dict) -> dict:
    """Hang well past any reasonable test timeout."""
    time.sleep(params.get("seconds", 60.0))
    return {"ok": True}


def crash(params: dict) -> dict:
    """Die without sending a result (simulates a segfaulting worker)."""
    os._exit(3)


def flaky(params: dict) -> dict:
    """Fail on the first attempt, succeed on the next (marker on disk)."""
    marker = pathlib.Path(params["marker"])
    if not marker.exists():
        marker.write_text("attempt 1 failed")
        raise RuntimeError("flaky first attempt")
    return {"ok": True, "recovered": True}


def pid(params: dict) -> dict:
    """Report which process ran the attempt (after an optional pause)."""
    if params.get("pidfile"):
        pathlib.Path(params["pidfile"]).write_text(str(os.getpid()))
    time.sleep(params.get("seconds", 0.0))
    return {"value": params.get("value"), "pid": os.getpid()}


#: process state :func:`pollute` leaves behind for whoever runs next
POLLUTED = False


def pollute(params: dict) -> dict:
    """Break the registry's contract: leave env, cwd and a global changed."""
    global POLLUTED
    POLLUTED = True
    os.environ["REPRO_TEST_POLLUTED"] = "1"
    os.chdir(params["cwd"])
    return {"pid": os.getpid()}
