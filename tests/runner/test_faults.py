"""Fault injection: raising, hanging, crashing jobs and corrupt caches.

One diverging simulation must never kill the sweep — it is retried,
then marked failed, while every other job completes normally.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.runner import JobSpec, ResultCache, run_jobs

ECHO = "tests.runner.jobs:echo"
BOOM = "tests.runner.jobs:boom"
SLEEPY = "tests.runner.jobs:sleepy"
CRASH = "tests.runner.jobs:crash"
FLAKY = "tests.runner.jobs:flaky"


def spec(kind, **params):
    return JobSpec(kind, params)


# ----------------------------------------------------------------------
# raising jobs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 2])
def test_raising_job_is_retried_then_marked_failed(workers):
    snaps = []
    results = run_jobs(
        [spec(ECHO, value=1), spec(BOOM), spec(ECHO, value=2)],
        workers=workers, cache=False, retries=1,
        progress=lambda s: snaps.append(s.snapshot()),
    )
    assert [r.status for r in results] == ["ok", "failed", "ok"]
    assert results[0].value == {"value": 1}
    assert results[2].value == {"value": 2}
    assert "injected failure" in results[1].error
    assert results[1].attempts == 2  # original + one retry
    assert snaps[-1] == dict(snaps[-1], done=2, failed=1, retries=1)


@pytest.mark.parametrize("workers", [0, 2])
def test_flaky_job_recovers_on_retry(tmp_path, workers):
    marker = tmp_path / "flaky.marker"
    res = run_jobs(
        [spec(FLAKY, marker=str(marker))],
        workers=workers, cache=False, retries=1,
    )[0]
    assert res.ok
    assert res.value["recovered"] is True
    assert res.attempts == 2


def test_failure_not_cached(tmp_path):
    cache = ResultCache(tmp_path)
    s = spec(BOOM)
    res = run_jobs([s], workers=0, cache=cache, retries=0)[0]
    assert not res.ok
    assert cache.get(s) is None  # failures are never served from cache


# ----------------------------------------------------------------------
# hanging and crashing workers (need process isolation)
# ----------------------------------------------------------------------
def test_hanging_job_times_out_without_stalling_the_sweep():
    results = run_jobs(
        [spec(SLEEPY, seconds=60.0), spec(ECHO, value="fast")],
        workers=2, cache=False, timeout=0.5, retries=0,
    )
    assert results[0].status == "failed"
    assert "timed out" in results[0].error
    assert results[1].ok and results[1].value == {"value": "fast"}


def test_crashing_worker_is_isolated_and_reported():
    results = run_jobs(
        [spec(CRASH), spec(ECHO, value="alive")],
        workers=2, cache=False, retries=1,
    )
    assert results[0].status == "failed"
    assert "crashed" in results[0].error
    assert results[0].attempts == 2
    assert results[1].ok


def test_timeout_retry_can_succeed(tmp_path):
    # first attempt hangs (no marker), retry returns instantly
    marker = tmp_path / "flaky.marker"
    res = run_jobs(
        [spec(FLAKY, marker=str(marker))],
        workers=1, cache=False, timeout=30.0, retries=1,
    )[0]
    assert res.ok and res.attempts == 2


# ----------------------------------------------------------------------
# cache corruption
# ----------------------------------------------------------------------
def test_corrupted_cache_entry_is_rebuilt(tmp_path):
    cache = ResultCache(tmp_path)
    s = spec(ECHO, value=42)
    first = run_jobs([s], workers=0, cache=cache)[0]
    assert not first.cached

    path = cache.path_for(s)
    path.write_text("\x00garbage not json")
    snaps = []
    rebuilt = run_jobs([s], workers=0, cache=cache,
                       progress=lambda st: snaps.append(st.snapshot()))[0]
    assert rebuilt.ok and not rebuilt.cached  # corrupt entry == miss
    assert rebuilt.value == first.value
    assert snaps[-1]["cached"] == 0 and snaps[-1]["done"] == 1

    # the rebuilt entry is valid JSON again and serves the next run
    assert json.loads(path.read_text())["payload"] == {"value": 42}
    assert run_jobs([s], workers=0, cache=cache)[0].cached


def test_unknown_kind_fails_gracefully():
    res = run_jobs([spec("no-such-kind")], workers=0, cache=False, retries=0)[0]
    assert res.status == "failed"
    assert "no-such-kind" in res.error


# ----------------------------------------------------------------------
# the same faults on the journal backend (run_jobs(fleet=)): one driver,
# so raise / flaky / crash must settle exactly as they do in memory, and
# the journal must agree with the returned results
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 2])
def test_raising_job_on_the_journal_backend(tmp_path, workers):
    from repro.fleet import Fleet

    fleet = Fleet(tmp_path / "fleet")
    snaps = []
    results = run_jobs(
        [spec(ECHO, value=1), spec(BOOM), spec(ECHO, value=2)],
        workers=workers, retries=1, fleet=fleet,
        progress=lambda s: snaps.append(s.snapshot()),
    )
    assert [r.status for r in results] == ["ok", "failed", "ok"]
    assert results[0].value == {"value": 1}
    assert results[2].value == {"value": 2}
    assert "injected failure" in results[1].error
    assert results[1].attempts == 2  # original + one retry
    assert snaps[-1] == dict(snaps[-1], done=2, failed=1, retries=1)
    assert fleet.status()["counts"] == {"pending": 0, "leased": 0,
                                        "done": 2, "failed": 1}
    boom = fleet.queue.jobs[spec(BOOM).cache_key]
    assert boom.attempts == 2 and "injected failure" in boom.error
    assert fleet.store.get(spec(BOOM)) is None  # failures are never stored


@pytest.mark.parametrize("workers", [0, 2])
def test_flaky_job_on_the_journal_backend(tmp_path, workers):
    marker = tmp_path / "flaky.marker"
    res = run_jobs(
        [spec(FLAKY, marker=str(marker))],
        workers=workers, retries=1, fleet=tmp_path / "fleet",
    )[0]
    assert res.ok
    assert res.value["recovered"] is True
    assert res.attempts == 2


def test_crashing_worker_on_the_journal_backend(tmp_path):
    results = run_jobs(
        [spec(CRASH), spec(ECHO, value="alive")],
        workers=2, retries=1, fleet=tmp_path / "fleet",
    )
    assert results[0].status == "failed"
    assert "crashed" in results[0].error
    assert results[0].attempts == 2
    assert results[1].ok


# ----------------------------------------------------------------------
# long-lived workers: one process per worker, replaced on failure
# ----------------------------------------------------------------------
PID = "tests.runner.jobs:pid"
POLLUTE = "tests.runner.jobs:pollute"


def test_attempts_share_at_most_n_worker_processes():
    results = run_jobs([spec(PID, value=i) for i in range(8)],
                       workers=2, cache=False)
    assert [r.value["value"] for r in results] == list(range(8))
    pids = {r.value["pid"] for r in results}
    assert len(pids) <= 2 and os.getpid() not in pids


@pytest.mark.parametrize("fault, timeout", [
    (spec(CRASH), None), (spec(BOOM), None), (spec(SLEEPY, seconds=60.0), 0.5)])
def test_a_failed_attempt_retires_its_worker(fault, timeout):
    """workers=1, so every attempt would share one process if it survived."""
    snaps = []
    before, failed, after = run_jobs(
        [spec(PID, value="before"), fault, spec(PID, value="after")],
        workers=1, cache=False, retries=1, timeout=timeout,
        progress=lambda s: snaps.append(s.snapshot()),
    )
    assert failed.status == "failed" and failed.attempts == 2
    assert before.ok and after.ok
    assert after.value["pid"] != before.value["pid"]
    assert snaps[-1] == dict(snaps[-1], done=2, failed=1, retries=1)


def test_a_well_behaved_job_is_deaf_to_what_a_worker_ran_before(tmp_path):
    """The registry's contract, on the built-in kind: nothing is reset
    between the attempts a worker serves, and a job that reads only its
    params does not care."""
    from repro.runner import dumbbell_spec

    point = dumbbell_spec("pert", bandwidth=2e6, n_fwd=2, duration=3.0,
                          warmup=1.0, seed=3)
    clean = run_jobs([point], workers=0, cache=False)[0]
    cwd, env = os.getcwd(), dict(os.environ)
    polluter, witness, shared = run_jobs(
        [spec(POLLUTE, cwd=str(tmp_path)), spec(PID), point],
        workers=1, cache=False)
    assert polluter.value["pid"] == witness.value["pid"]  # one process ran all three
    assert shared.ok and shared.value == clean.value
    assert (os.getcwd(), dict(os.environ)) == (cwd, env)  # never the caller's


def test_an_all_hit_sweep_starts_no_process(tmp_path, monkeypatch):
    from repro.runner import executor

    specs = [spec(ECHO, value=i) for i in range(6)]
    cache = ResultCache(tmp_path)
    run_jobs(specs, workers=0, cache=cache)
    monkeypatch.setattr(executor, "_mp_context", lambda: pytest.fail("forked"))
    again = run_jobs(specs, workers=2, cache=cache)
    assert all(r.cached for r in again)
    assert [r.value for r in again] == [{"value": i} for i in range(6)]


def _gone(pid):
    """Has process *pid* exited (a zombie nobody reaped counts as gone)?"""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_no_worker_outlives_a_sigkilled_driver(tmp_path):
    """Workers exit on pipe EOF.  Under fork the second worker inherits
    the driver's end of the first one's pipe: unless it closes it, the
    first never sees EOF and waits for a dead driver forever."""
    script = (
        "from repro.runner import JobSpec, run_jobs\n"
        f"run_jobs([JobSpec({PID!r}, dict(value=i, seconds=1.0,\n"
        f"          pidfile={str(tmp_path)!r} + '/%d.pid' % i)) for i in range(6)],\n"
        "         workers=2, cache=False)\n")
    repo = pathlib.Path(__file__).resolve().parents[2]
    driver = subprocess.Popen(
        [sys.executable, "-c", script], cwd=repo,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(repo / "src"), str(repo)])))
    pidfiles = [tmp_path / "0.pid", tmp_path / "1.pid"]
    workers = []
    try:
        deadline = time.monotonic() + 60.0
        while not all(p.exists() and p.read_text() for p in pidfiles):
            assert driver.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        workers = [int(p.read_text()) for p in pidfiles]
        assert len(set(workers)) == 2 and not any(map(_gone, workers))
    finally:
        driver.kill()  # SIGKILL the driver alone, not its process group
        driver.wait(timeout=60.0)
    try:
        deadline = time.monotonic() + 20.0  # their 1 s attempts, and margin
        while not all(map(_gone, workers)):
            assert time.monotonic() < deadline, "a worker outlived its driver"
            time.sleep(0.05)
        assert not (tmp_path / "4.pid").exists()  # and nobody took new work
    finally:
        for worker in workers:
            if not _gone(worker):
                os.kill(worker, signal.SIGKILL)
