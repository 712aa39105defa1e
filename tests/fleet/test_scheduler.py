"""Fleet facade: submit dedupe, drain, results, env resolution, and the
``run_jobs(fleet=)`` route every experiment takes."""

from __future__ import annotations

import json
import shutil
import time

import pytest

from repro.fleet import Fleet, resolve_fleet
from repro.runner import JobSpec, run_jobs
from repro.runner import spec as spec_module
from repro.runner.cache import ResultCache

ECHO = "tests.runner.jobs:echo"
BOOM = "tests.runner.jobs:boom"
SLEEPY = "tests.runner.jobs:sleepy"


def test_submit_drain_results_roundtrip(tmp_path):
    fleet = Fleet(tmp_path / "fleet")
    receipt = fleet.submit([(ECHO, {"value": i}) for i in range(4)],
                           sweep="s")
    assert receipt.summary() == {"sweep": "s", "jobs": 4, "submitted": 4,
                                 "deduped": 0, "known": 0}
    counts = fleet.drain(workers=0)
    assert counts == {"pending": 0, "leased": 0, "done": 4, "failed": 0}
    payloads = [e["payload"] for e in fleet.results("s")]
    assert payloads == [{"value": i} for i in range(4)]


def test_submit_dedupes_across_sweeps_via_store(tmp_path):
    fleet = Fleet(tmp_path / "fleet")
    fleet.submit([(ECHO, {"value": 1})], sweep="first")
    fleet.drain(workers=0)
    # an overlapping second sweep: the shared point never reaches a worker
    receipt = fleet.submit([(ECHO, {"value": 1}), (ECHO, {"value": 2})],
                           sweep="second")
    assert receipt.deduped == 0 and receipt.known == 1 and receipt.submitted == 1
    fleet.drain(workers=0)
    rows = fleet.results(receipt)  # receipt keys span both sweeps
    assert [r["payload"] for r in rows] == [{"value": 1}, {"value": 2}]
    status = fleet.status()
    assert status["computed"] == {"fresh": 2, "hit": 0}


def test_submit_dedupes_against_prewarmed_store(tmp_path):
    """Points already in the store are acknowledged without any worker."""
    fleet = Fleet(tmp_path / "fleet")
    fleet.store.put(JobSpec(ECHO, {"value": 7}), {"value": 7})
    receipt = fleet.submit([(ECHO, {"value": 7}), (ECHO, {"value": 8})])
    assert receipt.deduped == 1 and receipt.submitted == 1
    fleet.drain(workers=0)
    assert fleet.status()["computed"] == {"fresh": 1, "hit": 1}


def test_submit_recomputes_a_damaged_store_entry(tmp_path):
    """A store file that does not read back is a miss, as in ``run_jobs``:
    the point is queued and recomputed, and ``results`` returns its
    payload instead of reporting it done with none."""
    fleet = Fleet(tmp_path / "fleet")
    spec = JobSpec(ECHO, {"value": 3})
    path = fleet.store.path_for(spec)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    receipt = fleet.submit([spec], sweep="s")
    assert receipt.deduped == 0 and receipt.submitted == 1
    fleet.drain(workers=0)
    assert [(r["state"], r["payload"]) for r in fleet.results(receipt)] \
        == [("done", {"value": 3})]
    assert fleet.status()["computed"] == {"fresh": 1, "hit": 0}


def _fresh_dones(fleet):
    """Per key, how many times the journal says it was computed fresh."""
    out = {}
    for rec in fleet.queue.journal.read_all():
        if rec["op"] == "done" and rec["store"] == "fresh":
            out[rec["key"]] = out.get(rec["key"], 0) + 1
    return out


@pytest.mark.parametrize("damage", ["delete_store", "corrupt_one"])
def test_a_lost_store_entry_is_recomputed_not_returned(tmp_path, damage):
    """A finished sweep asked again after its store entries were lost must
    recompute them: a done job with no readable entry is queued again
    (journaled ``requeue``), never returned as ``ok`` with no payload."""
    fleet_dir = tmp_path / "fleet"
    specs = [JobSpec(ECHO, {"value": i}) for i in range(3)]
    first = run_jobs(specs, workers=0, fleet=fleet_dir)
    assert [r.value for r in first] == [{"value": i} for i in range(3)]
    fleet = Fleet(fleet_dir)
    if damage == "delete_store":
        shutil.rmtree(fleet.store.root)
        lost = {s.cache_key for s in specs}
    else:
        fleet.store.path_for(specs[1]).write_text("{not json")
        lost = {specs[1].cache_key}

    again = run_jobs(specs, workers=0, fleet=fleet_dir)
    assert [r.status for r in again] == ["ok"] * 3
    assert [r.value for r in again] == [{"value": i} for i in range(3)]
    assert [r.cached for r in again] == [s.cache_key not in lost for s in specs]
    fleet.queue.sync()
    assert _fresh_dones(fleet) == {s.cache_key: 1 + (s.cache_key in lost)
                                   for s in specs}
    assert fleet.status()["requeues"] == len(lost)
    assert [r["payload"] for r in fleet.results(fleet.submit(specs))] \
        == [{"value": i} for i in range(3)]
    # replay is total: a fresh handle folds the requeue the same way
    assert Fleet(fleet_dir).status()["computed"] == fleet.status()["computed"]


def test_an_entry_lost_after_submit_is_a_failure(tmp_path):
    """An entry that vanishes between submit and the read-back cannot be
    requeued by this call any more: the job is reported failed, with the
    reason, never ok without a payload."""
    fleet = Fleet(tmp_path / "fleet")
    specs = [JobSpec(ECHO, {"value": i}) for i in range(2)]
    run_jobs(specs, workers=0, fleet=fleet)
    submit = fleet.submit

    def submit_then_lose(jobs, **kwargs):
        receipt = submit(jobs, **kwargs)
        shutil.rmtree(fleet.store.root)
        return receipt

    fleet.submit = submit_then_lose
    again = run_jobs(specs, workers=0, fleet=fleet)
    assert [r.status for r in again] == ["failed", "failed"]
    assert all("store entry is missing or unreadable" in r.error for r in again)
    assert all(r.value is None for r in again)
    del fleet.submit  # the next call sees the loss at submit: recomputed
    third = run_jobs(specs, workers=0, fleet=fleet)
    assert [r.value for r in third] == [{"value": 0}, {"value": 1}]
    assert not any(r.cached for r in third)


def test_results_derives_no_key(tmp_path, monkeypatch):
    """The journal already holds each job's key: ``results`` reads the
    entry by it, by sweep name or by receipt, and hashes no spec."""
    fleet = Fleet(tmp_path / "fleet")
    specs = [JobSpec(ECHO, {"value": i}) for i in range(3)]
    receipt = fleet.submit(specs, sweep="s")
    fleet.drain(workers=0)
    derived = []
    content_key = spec_module.content_key
    monkeypatch.setattr(spec_module, "content_key",
                        lambda *a: derived.append(a) or content_key(*a))
    for sweep in ("s", receipt):
        assert [r["payload"] for r in fleet.results(sweep)] \
            == [{"value": i} for i in range(3)]
    assert derived == []


def test_rerun_of_a_finished_sweep_parses_each_entry_once(tmp_path,
                                                          monkeypatch):
    """Submit reads every finished point's entry to check it is not
    lost; the read-back takes those entries instead of parsing them
    again."""
    n = 4
    specs = [JobSpec(ECHO, {"value": i}) for i in range(n)]
    run_jobs(specs, workers=0, fleet=tmp_path / "fleet")
    parsed = []
    read = ResultCache._read
    monkeypatch.setattr(ResultCache, "_read",
                        lambda self, key: parsed.append(key) or read(self, key))
    again = run_jobs(specs, workers=0, fleet=tmp_path / "fleet")
    assert [r.value for r in again] == [{"value": i} for i in range(n)]
    assert all(r.cached for r in again)
    assert sorted(parsed) == sorted(s.cache_key for s in specs)


def test_failed_jobs_surface_in_results(tmp_path):
    fleet = Fleet(tmp_path / "fleet", max_attempts=2)
    receipt = fleet.submit([(BOOM, {}), (ECHO, {"value": 1})], sweep="s")
    counts = fleet.drain(workers=0)
    assert counts["done"] == 1 and counts["failed"] == 1
    by_state = {e["state"]: e for e in fleet.results(receipt)}
    assert "injected failure" in by_state["failed"]["error"]
    assert by_state["done"]["payload"] == {"value": 1}


def test_worker_acks_store_hit_without_running(tmp_path):
    """A pending job whose result landed meanwhile becomes a store hit —
    the store-first half of a crash between ``put`` and ``done``."""
    fleet = Fleet(tmp_path / "fleet")
    receipt = fleet.submit([(ECHO, {"value": 5})])
    fleet.store.put(JobSpec(ECHO, {"value": 5}), {"value": 5})
    fleet.drain(workers=0)
    assert fleet.queue.jobs[receipt.keys[0]].store == "hit"
    assert fleet.store.stats["puts"] == 1  # only our seeding put


def test_drain_with_local_transport(tmp_path):
    """``workers=2`` fans attempts out to local worker processes."""
    fleet = Fleet(tmp_path / "fleet", ttl=10.0)
    fleet.submit([(ECHO, {"value": i}) for i in range(8)], sweep="mp")
    counts = fleet.drain(workers=2)
    assert counts["done"] == 8 and counts["failed"] == 0
    assert fleet.status()["computed"]["fresh"] == 8


def test_bus_events_flow(tmp_path):
    fleet = Fleet(tmp_path / "fleet")
    fleet.submit([(ECHO, {"value": 1})], sweep="s")
    fleet.drain(workers=0)
    lines = (fleet.root / "events.jsonl").read_text().splitlines()
    types = [json.loads(line)["type"] for line in lines]
    for expected in ("run_started", "job_started", "job_finished",
                     "run_finished"):
        assert expected in types, f"missing {expected} in {types}"
    # the journal is the queue's only record: the bus carries no copy
    assert not [t for t in types if t.startswith("fleet_")], types
    # a clean job costs exactly three journal records
    ops = [rec["op"] for rec in fleet.queue.journal.read_all()]
    assert ops == ["submit", "lease", "done"]


def test_bus_can_be_disabled(tmp_path):
    fleet = Fleet(tmp_path / "fleet", bus=False)
    fleet.submit([(ECHO, {"value": 1})])
    fleet.drain(workers=0)
    assert not (fleet.root / "events.jsonl").exists()


def test_resolve_fleet(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FLEET", raising=False)
    assert resolve_fleet(None) is None
    assert resolve_fleet(False) is None
    fleet = Fleet(tmp_path / "a")
    assert resolve_fleet(fleet) is fleet
    opened = resolve_fleet(str(tmp_path / "b"))
    assert isinstance(opened, Fleet)
    monkeypatch.setenv("REPRO_FLEET", str(tmp_path / "c"))
    from_env = resolve_fleet(None)
    assert isinstance(from_env, Fleet)
    assert from_env.root == tmp_path / "c"
    assert resolve_fleet(False) is None  # explicit off beats the env


def test_sweep_dumbbell_fleet_path_matches_runner(tmp_path):
    """Fleeted sweeps yield the same rows as the plain runner path."""
    from repro.experiments.sweep import sweep_dumbbell
    kwargs = dict(
        schemes=("pert",), bandwidth=4e6, duration=3.0, warmup=1.0, n_fwd=2,
    )
    points = [{"duration": 3.0}, {"duration": 4.0}]
    plain = sweep_dumbbell(points, workers=0, cache=False, fleet=False,
                           **kwargs)
    fleeted = sweep_dumbbell(points, workers=0,
                             fleet=str(tmp_path / "fleet"), **kwargs)
    assert fleeted == plain
    # a second fleeted run recomputes nothing
    fleet = Fleet(tmp_path / "fleet")
    before = fleet.status()["computed"]
    again = sweep_dumbbell(points, workers=0, fleet=fleet, **kwargs)
    assert again == plain
    assert fleet.status()["computed"] == before


def test_table1_and_fig11_journal_their_points(tmp_path, monkeypatch):
    """``--fleet``/``$REPRO_FLEET`` reaches every ``run_jobs`` caller, not
    only ``sweep_dumbbell`` — a registered kind (table1) and dotted-path
    jobs (fig11, fig12), all configured by the environment alone: rows
    equal the runner path's, points land in the journal, and a second
    run recomputes nothing."""
    from repro.experiments import (fig11_multibottleneck, fig12_dynamics,
                                   table1_rtts)

    table1_kw = dict(bandwidth=8e6, n_fwd=3, rtts=[0.012, 0.024, 0.036],
                     web_sessions=0, schemes=("pert", "vegas"),
                     duration=4.0, warmup=2.0)
    fig11_kw = dict(schemes=("pert",), n_routers=3, cloud_size=2,
                    link_bw=8e6, duration=6.0, warmup=3.0)
    fig12_kw = dict(schemes=("pert",), n_cohorts=2, cohort_size=2, epoch=2.0,
                    bandwidth=6e6)

    def figures():
        return (table1_rtts.run(**table1_kw),
                fig11_multibottleneck.run(**fig11_kw),
                fig12_dynamics.run(**fig12_kw))

    monkeypatch.setenv("REPRO_WORKERS", "0")
    monkeypatch.setenv("REPRO_CACHE", "0")
    plain = figures()
    monkeypatch.delenv("REPRO_CACHE")

    monkeypatch.setenv("REPRO_FLEET", str(tmp_path / "fleet"))
    assert figures() == plain
    status = Fleet(tmp_path / "fleet").status()
    # two table1 schemes + one fig11 + one fig12
    assert status["counts"]["done"] == 4
    assert status["computed"] == {"fresh": 4, "hit": 0}

    assert figures() == plain
    assert Fleet(tmp_path / "fleet").status()["computed"] == status["computed"]


def test_fleeted_timeout_kills_and_fails_without_waiting_for_the_lease(tmp_path):
    """``timeout``/``retries``/``progress`` act on the journal backend: a
    hanging attempt is killed at its deadline and failed at once (the
    lease has 10 minutes left), while its sibling completes."""
    fleet = Fleet(tmp_path / "fleet", ttl=600.0)
    snaps = []
    t0 = time.monotonic()
    results = run_jobs(
        [JobSpec(SLEEPY, {"seconds": 60.0}), JobSpec(ECHO, {"value": "fast"})],
        workers=2, timeout=0.5, retries=0, fleet=fleet,
        progress=lambda s: snaps.append(s.snapshot()),
    )
    assert time.monotonic() - t0 < 30.0
    assert results[0].status == "failed" and "timed out" in results[0].error
    assert results[1].ok and results[1].value == {"value": "fast"}
    assert snaps[-1] == dict(snaps[-1], total=2, done=1, failed=1, retries=0)
    fleet.queue.sync()
    assert fleet.queue.counts() == {"pending": 0, "leased": 0,
                                    "done": 1, "failed": 1}
    hung = fleet.queue.jobs[results[0].spec.cache_key]
    assert hung.attempts == 1 and "timed out" in hung.error


def test_fleeted_timeout_requeues_while_retries_remain(tmp_path):
    """With a retry left the timed-out attempt goes back to pending and is
    leased again immediately — two leases, no TTL wait."""
    fleet = Fleet(tmp_path / "fleet", ttl=600.0)
    res = run_jobs([JobSpec(SLEEPY, {"seconds": 60.0})], workers=1,
                   timeout=0.3, retries=1, fleet=fleet)[0]
    assert res.status == "failed" and res.attempts == 2
    ops = [rec["op"] for rec in fleet.queue.journal.read_all()]
    assert ops == ["submit", "lease", "requeue", "lease", "failed"]


@pytest.mark.parametrize("workers", [0, 2])
def test_running_attempts_keep_their_leases(tmp_path, workers):
    """Attempts longer than the TTL are renewed by the draining process:
    the expired-lease sweep that precedes every lease (here: the third
    job's, taken while the long one is still running under ``workers=2``)
    finds nothing to requeue."""
    fleet = Fleet(tmp_path / "fleet", ttl=0.3)
    receipt = fleet.submit([(SLEEPY, {"seconds": seconds})
                            for seconds in (0.4, 1.5, 0.1)])
    counts = fleet.drain(workers=workers)
    assert counts["done"] == 3 and counts["failed"] == 0
    ops = [rec["op"] for rec in fleet.queue.journal.read_all()]
    assert "renew" in ops and "requeue" not in ops
    assert all(fleet.queue.jobs[key].attempts == 1 for key in receipt.keys)
