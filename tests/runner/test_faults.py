"""Fault injection: raising, hanging, crashing jobs and corrupt caches.

One diverging simulation must never kill the sweep — it is retried,
then marked failed, while every other job completes normally.
"""

import json

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
