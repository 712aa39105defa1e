"""Kill -9 tolerance: converge after a drain dies, with zero recomputation.

The headline guarantee of :mod:`repro.fleet`: submit a sweep, SIGKILL
the draining process mid-run, resume — every point finished before the
kill is a content-addressed store hit, never simulated again, and
half-finished points run again from their specs.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fleet import Fleet
from repro.runner.spec import JobSpec

ECHO_LOG = "tests.fleet.jobs:touch_and_echo"
SLOW_ONCE = "tests.fleet.jobs:slow_once"

#: generous wall-clock bound for "the drain finishes the quick jobs"
DEADLINE = 60.0

REPO = Path(__file__).resolve().parents[2]


def _wait_until(predicate, deadline=DEADLINE, poll=0.05):
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition not reached before deadline")


def _store_hashes(fleet, keys):
    """SHA-256 of each done key's store file (None when absent)."""
    out = {}
    for key in keys:
        job = fleet.queue.jobs[key]
        path = fleet.store.path_for(JobSpec(job.kind, job.params))
        out[key] = (hashlib.sha256(path.read_bytes()).hexdigest()
                    if path.exists() else None)
    return out


def _fresh_done_counts(fleet):
    """Per-key count of journaled ``done(store="fresh")`` records."""
    counts = {}
    for rec in fleet.queue.journal.read_all():
        if rec["op"] == "done" and rec["store"] == "fresh":
            counts[rec["key"]] = counts.get(rec["key"], 0) + 1
    return counts


def _kill_mid_run_then_resume(tmp_path, workers):
    fleet = Fleet(tmp_path / "fleet", ttl=1.0)
    log = tmp_path / "computed.log"
    marker = tmp_path / "slow.marker"
    quick = [(ECHO_LOG, {"value": i, "log": str(log)}) for i in range(6)]
    # the hang sorts last (lowest priority): the drain finishes all quick
    # points first, then gets killed while stuck on this one
    receipt = fleet.submit(quick, sweep="quick", priority=1)
    fleet.submit([(SLOW_ONCE, {"value": 99, "marker": str(marker)})],
                 sweep="slow", priority=0)

    # a real `python -m repro.fleet drain`, in its own process group so
    # the kill also takes the one-shot worker of the workers=1 case
    drain = subprocess.Popen(
        [sys.executable, "-m", "repro.fleet", "drain", str(fleet.root),
         "--workers", str(workers), "--ttl", "1.0"],
        cwd=REPO, start_new_session=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src"), str(REPO)])),
    )
    try:
        _wait_until(lambda: (fleet.queue.sync() or True)
                    and fleet.queue.counts()["done"] == 6
                    and marker.exists())
        assert drain.poll() is None  # still draining: stuck on the hang
    finally:
        os.killpg(drain.pid, signal.SIGKILL)
        drain.wait(timeout=DEADLINE)
    assert drain.returncode == -signal.SIGKILL

    fleet.queue.sync()
    assert fleet.queue.counts() == {"pending": 0, "leased": 1,
                                    "done": 6, "failed": 0}
    hashes_before = _store_hashes(fleet, receipt.keys)
    assert None not in hashes_before.values()

    # resume: expired lease requeues, retry returns instantly (marker set)
    counts = fleet.resume(workers=0)
    assert counts == {"pending": 0, "leased": 0, "done": 7, "failed": 0}

    # zero recomputation, three independent witnesses:
    # 1. the journal: every key computed fresh exactly once
    assert set(_fresh_done_counts(fleet).values()) == {1}
    # 2. the store: finished points' bytes are untouched by the resume
    assert _store_hashes(fleet, receipt.keys) == hashes_before
    # 3. the jobs themselves: one log line per quick point, ever
    lines = sorted(log.read_text().split())
    assert lines == [str(i) for i in range(6)]


def test_sigkill_mid_run_converges_with_zero_recompute(tmp_path):
    """The drain and its one-shot worker process both die."""
    _kill_mid_run_then_resume(tmp_path, workers=1)


def test_sigkill_of_in_process_drain_converges_too(tmp_path):
    """``--workers 0``: the hang runs inside the killed process itself."""
    _kill_mid_run_then_resume(tmp_path, workers=0)


def test_killed_submitter_resumes_idempotently(tmp_path):
    """Re-running an interrupted submit+drain recomputes nothing."""
    fleet = Fleet(tmp_path / "fleet")
    log = tmp_path / "computed.log"
    jobs = [(ECHO_LOG, {"value": i, "log": str(log)}) for i in range(4)]
    fleet.submit(jobs, sweep="s")
    fleet.drain(workers=0)
    # "crashed after draining, re-ran the script from the top"
    fleet2 = Fleet(tmp_path / "fleet")
    receipt = fleet2.submit(jobs, sweep="s")
    assert receipt.known == 4  # journal already has every key
    fleet2.drain(workers=0)
    assert len(log.read_text().split()) == 4
    assert [e["payload"]["value"] for e in fleet2.results(receipt)] == [0, 1, 2, 3]

