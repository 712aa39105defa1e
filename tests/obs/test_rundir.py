"""The run-directory fold (``RunView``) and the report lines it feeds:
job states from the bus, the fleet rollup from the journal, and one
per-scheme rollup shared by report and diff."""

import json
import time

import pytest

from repro.fleet import Fleet, JobQueue, Journal
from repro.fleet.journal import JOURNAL_SCHEMA
from repro.obs.bus import BUS_SCHEMA, EventBus
from repro.obs.diff import diff_runs
from repro.obs.report import _scheme_rollup, format_table, generate_report
from repro.obs.rundir import RunView
from repro.runner import JobSpec, run_jobs
from repro.runner.cache import ResultCache
from repro.runner.spec import dumbbell_spec


def _emit_lifecycle(path, key="k1", fail=False):
    bus = EventBus(path)
    bus.emit("run_started", total=1)
    bus.emit("job_started", key=key, kind="dumbbell", scheme="pert", seed=3,
             attempt=1)
    bus.emit("phase_started", key=key, phase="warmup")
    bus.emit("phase_finished", key=key, phase="warmup", seconds=0.5)
    bus.emit("heartbeat", key=key, sim_now=10.0, events=100, sched=150,
             peak_rss_kb=9000)
    bus.emit("heartbeat", key=key, sim_now=20.0, events=200, sched=350,
             peak_rss_kb=9100)
    if fail:
        bus.emit("job_failed", key=key, error="boom", attempts=2)
    else:
        bus.emit("job_finished", key=key, wall_time=1.5, events=200,
                 attempts=1)
    bus.emit("run_finished", stats={"done": 0 if fail else 1, "total": 1})
    bus.close()


def _count(view, state):
    return sum(job["state"] == state for job in view.jobs())


# ---------------------------------------------------------------------------
# RunView


def test_runview_builds_job_states_from_bus(tmp_path):
    _emit_lifecycle(tmp_path / "events.jsonl")
    view = RunView(tmp_path)
    assert view.refresh() == 8
    assert view.refresh() == 0  # incremental: nothing new to apply
    jobs = view.jobs()
    assert len(jobs) == 1
    job = jobs[0]
    assert job["state"] == "done"
    assert job["scheme"] == "pert"
    assert job["wall_time"] == 1.5
    assert job["peak_rss_kb"] == 9100  # the last heartbeat's
    assert _count(view, "done") == 1


def test_runview_failed_job_and_torn_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    _emit_lifecycle(path, fail=True)
    with path.open("a") as fh:
        fh.write('{"v": %d, "type": "job_started", "ke' % BUS_SCHEMA)  # torn
    view = RunView(tmp_path)
    view.refresh()
    job = view.jobs()[0]
    assert job["state"] == "failed"
    assert job["error"] == "boom"
    assert _count(view, "failed") == 1
    # the torn tail completes later: the event must then apply
    with path.open("a") as fh:
        fh.write('y": "k2", "kind": "d", "scheme": null, "seed": null, '
                 '"attempt": 1, "ts": 5.0, "pid": 1}\n')
    view.refresh()
    assert len(view.jobs()) == 2
    assert _count(view, "running") == 1


def _fleet_with_requeue(root):
    """A fleet directory: a done, one requeued-then-expired lease (w3 on
    b) and one live lease (w4 on c)."""
    queue = JobQueue(root)
    for key in "abc":
        queue.submit(key * 64, "tests.runner.jobs:echo", {"value": key},
                     sweep="s")
    now = time.time()
    queue.lease("w1", now=now)
    queue.done("a" * 64, "w1")
    queue.lease("w2", ttl=1.0, now=now - 10.0)  # b: expired at once
    assert queue.requeue_expired() == ["b" * 64]
    queue.lease("w3", ttl=1.0, now=now - 10.0)  # b again, expired again
    queue.lease("w4", now=now)  # c: live


def test_runview_aggregates_fleet_events(tmp_path):
    """The fleet rollup is the journal's fold — the dict ``Fleet.status``
    returns — and an expired lease is no live worker."""
    _fleet_with_requeue(tmp_path)
    view = RunView(tmp_path)
    view.refresh()
    fleet = view.fleet()
    status = Fleet(tmp_path).status()
    assert fleet == {k: v for k, v in status.items()
                     if k not in ("root", "drained")}
    assert fleet["counts"] == {"pending": 0, "leased": 2, "done": 1,
                               "failed": 0}
    assert fleet["sweeps"] == {"s": fleet["counts"]}
    assert fleet["computed"] == {"fresh": 1, "hit": 0}
    assert fleet["requeues"] == 1
    assert fleet["workers"] == ["w4"]  # w3 holds b, but its lease expired
    # the fleet does not pollute the per-job table
    assert view.jobs() == []


def test_runview_applies_only_valid_events(tmp_path):
    """A line ``validate_event`` rejects never becomes a job, even when it
    carries a ``key`` — an unknown type, or any schema-1 line."""
    lines = [{"v": BUS_SCHEMA, "type": "nope", "ts": 1.0, "pid": 1,
              "key": "k1"},
             {"v": 1, "type": "job_cached", "ts": 1.0, "pid": 1, "key": "k2"}]
    (tmp_path / "events.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines))
    view = RunView(tmp_path)
    assert view.refresh() == 0
    assert view.jobs() == []


def test_torn_line_is_read_once_by_journal_and_view(tmp_path):
    """Journal replay and the view share one reader: a line torn
    mid-write surfaces exactly once, after the append completing it."""
    rec = json.dumps({"v": JOURNAL_SCHEMA, "op": "submit", "key": "k",
                      "kind": "tests.runner.jobs:echo", "params": {},
                      "sweep": "s", "priority": 0, "ts": 1.0})
    ev = json.dumps({"v": BUS_SCHEMA, "type": "job_cached", "key": "k",
                     "ts": 1.0, "pid": 1})
    journal_path, bus_path = tmp_path / "journal.jsonl", tmp_path / "events.jsonl"
    journal_path.write_text(rec[:20])
    bus_path.write_text(ev[:20])
    journal, view = Journal(tmp_path), RunView(tmp_path)
    assert journal.read_new() == []
    assert view.refresh() == 0
    assert view.fleet()["counts"]["pending"] == 0
    with journal_path.open("a") as fh:
        fh.write(rec[20:] + "\n")
    with bus_path.open("a") as fh:
        fh.write(ev[20:] + "\n")
    assert [r["key"] for r in journal.read_new()] == ["k"]
    assert journal.read_new() == []
    assert view.refresh() == 1 and view.refresh() == 0
    assert view.fleet()["counts"]["pending"] == 1


def test_runview_fleet_is_none_without_fleet_events(tmp_path):
    _emit_lifecycle(tmp_path / "events.jsonl")
    view = RunView(tmp_path)
    view.refresh()
    assert view.fleet() is None


def test_runview_metrics(tmp_path):
    (tmp_path / "ke").mkdir()
    (tmp_path / "ke" / "key.json").write_text(json.dumps({
        "key": "key", "kind": "dumbbell",
        "params": {"scheme": "pert", "seed": 1},
        "payload": {"drop_rate": 0.01},
        "meta": {"wall_time": 2.0, "events": 5000, "attempts": 1},
    }))
    (tmp_path / "validation").mkdir()
    (tmp_path / "validation" / "verdict-quick.json").write_text(json.dumps({
        "tier": "quick", "figures": [{"figure": "fig6", "metrics": []}]}))
    (tmp_path / "to").mkdir()
    (tmp_path / "to" / "torn.json").write_text("{torn")
    view = RunView(tmp_path)
    view.refresh()
    metrics = view.metrics()
    assert metrics["jobs"] == 1
    assert metrics["schemes"]["pert"]["events_per_sec"] == pytest.approx(2500)
    assert metrics["schemes"]["pert"]["drop_rate"] == pytest.approx(0.01)
    assert len(metrics["warnings"]) == 1
    assert [v["figure"] for v in view.validations] == ["fig6"]


def _events_specs():
    return [
        JobSpec(kind="tests.runner.jobs:events",
                params={"value": i, "events": 20, "scheme": "pert", "seed": i})
        for i in range(2)
    ]


def test_runview_lists_entry_jobs_of_a_bus_off_directory(tmp_path):
    """With the bus off, the cache entries alone are the job table."""
    specs = _events_specs()
    run_jobs(specs, workers=0, cache=ResultCache(tmp_path), bus=False)
    view = RunView(tmp_path)
    assert view.refresh() == 0
    jobs = view.jobs()
    assert sorted(j["key"] for j in jobs) == sorted(s.cache_key for s in specs)
    for job in jobs:
        assert job["state"] == "done"
        assert job["kind"] == "tests.runner.jobs:events"
        assert job["scheme"] == "pert"
        assert job["phases"] == {} and job["peak_rss_kb"] > 0
    assert _count(view, "done") == 2


def test_runview_sees_an_entry_rewritten_twice_between_refreshes(tmp_path):
    """``atomic_write`` renames a fresh temp file over the entry, so two
    rewrites land back on the inode the last refresh saw: the parse memo
    must not take an unchanged inode for an unchanged file."""
    cache = ResultCache(tmp_path)
    spec = _events_specs()[0]
    view = RunView(tmp_path)
    stale = []
    for i in range(20):
        for wall in (1000 + 2 * i, 1001 + 2 * i):  # same size every time
            cache.put(spec, {"value": 0}, meta={"wall_time": wall})
        view.refresh()
        if view.records[0]["wall_time"] != 1001 + 2 * i:
            stale.append(i)
    assert stale == []


def test_runview_cached_rows_carry_their_manifest(tmp_path):
    """A key the bus only saw served from the cache still says what it
    is: its cache entry supplies kind/scheme/seed/wall_time, the bus the
    state."""
    specs = _events_specs()
    cache = ResultCache(tmp_path)
    run_jobs(specs, workers=0, cache=cache, bus=False)
    run_jobs(specs, workers=0, cache=cache, bus=tmp_path / "events.jsonl")
    view = RunView(tmp_path)
    view.refresh()
    entries = {s.cache_key: json.loads(cache.path_for(s).read_text())
               for s in specs}
    jobs = view.jobs()
    assert len(jobs) == 2
    for job in jobs:
        entry = entries[job["key"]]
        assert job["state"] == "cached" and job["finished_ts"] is not None
        assert job["kind"] == entry["kind"]
        assert job["scheme"] == entry["params"]["scheme"]
        assert job["seed"] == entry["params"]["seed"]
        assert job["wall_time"] == entry["meta"]["wall_time"]


def test_report_and_diff_roll_up_one_fold(tmp_path, monkeypatch):
    """The report's per-scheme table and ``diff_runs``' A column are one
    dict of one fold."""
    monkeypatch.setenv("REPRO_OBS", "1")  # queue_delay comes from --obs
    run_jobs([dumbbell_spec(scheme=scheme, bandwidth=bw, n_fwd=3,
                            duration=4.0, warmup=1.5, seed=3)
              for scheme in ("pert", "sack-droptail") for bw in (2e6, 4e6)],
             workers=0, cache=ResultCache(tmp_path), bus=False)
    view = RunView(tmp_path)
    view.refresh()
    schemes = view.metrics()["schemes"]
    assert set(schemes) == {"pert", "sack-droptail"}
    assert all(agg["jobs"] == 2 and agg["queue_delay"] is not None
               for agg in schemes.values())

    diff = diff_runs(tmp_path, tmp_path)
    assert {s: {m: cell["a"] for m, cell in metrics.items()}
            for s, metrics in diff["schemes"].items()} == {
        s: {m: agg[m] for m in diff["schemes"][s]} for s, agg in schemes.items()}

    table = format_table(
        ["scheme", "jobs", "wall", "events", "events/s",
         "drop_rate", "norm_queue", "util"], _scheme_rollup(schemes))
    assert "== events/s by scheme ==\n" + table in generate_report(tmp_path)


# ---------------------------------------------------------------------------
# the report's job-state and fleet lines


def test_report_counts_failed_and_cached_jobs_on_the_jobs_line(tmp_path):
    """Jobs the bus saw fail or come from the cache are counted on the
    ``jobs`` line; the number itself stays the count of entries."""
    cache, bus = ResultCache(tmp_path), tmp_path / "events.jsonl"
    specs = [JobSpec("tests.runner.jobs:events", {"value": 1, "events": 5}),
             JobSpec("tests.runner.jobs:boom", {})]
    run_jobs(specs, workers=0, cache=cache, retries=0, bus=bus)
    report = generate_report(tmp_path, include_trace=False)
    assert "jobs          : 1 (1 failed)\n" in report
    run_jobs(specs, workers=0, cache=cache, retries=0, bus=bus)
    report = generate_report(tmp_path, include_trace=False)
    assert "jobs          : 1 (1 failed, 1 cached)\n" in report
    assert "== fleet ==" not in report  # no journal, no fleet section


def test_report_shows_the_fleet_rollup_of_a_fleet_directory(tmp_path):
    """The ``fleet`` section is ``python -m repro.fleet status``'s
    counts, fresh runs against store hits, requeues and live workers."""
    _fleet_with_requeue(tmp_path)
    status = Fleet(tmp_path).status()
    assert status["counts"] == {"pending": 0, "leased": 2, "done": 1,
                                "failed": 0}
    assert status["computed"] == {"fresh": 1, "hit": 0}
    report = generate_report(tmp_path)
    assert report.endswith(
        "\n== fleet ==\n"
        "pending 0, leased 2, done 1, failed 0\n"
        "fresh 1, store hits 0, requeues 1\n"
        "workers w4")


#: ``generate_report`` on :func:`_bus_off_entries`' directory, with the
#: directory's path as ``{run_dir}``: a bus-off cache directory reports
#: no job states and no fleet
_BUS_OFF_REPORT = """\
run directory : {run_dir}
jobs          : 2
job wall time : 3.000s
sim events    : 80,000
events/s      : 26,667

== events/s by scheme ==
scheme         jobs    wall  events  events/s  drop_rate  norm_queue    util
-------------  ----  ------  ------  --------  ---------  ----------  ------
pert              1  2.000s  50,000    25,000     0.0000      0.2500  0.9800
sack-droptail     1  1.000s  30,000    30,000     0.0200      0.7500  0.9900

== wall time by phase ==
phase      wall  share
-------  ------  -----
measure  1.500s  50.0%
warmup   1.125s  37.5%
setup    0.375s  12.5%

== slowest jobs (top 2) ==
job                              wall  events  events/s  peak_rss  attempts
-----------------------------  ------  ------  --------  --------  --------
dumbbell/pert/seed=1           2.000s  50,000    25,000      40MB         1
dumbbell/sack-droptail/seed=1  1.000s  30,000    30,000      30MB         2

== queue delay / drop summary (from --obs metrics) ==
queue                            mean_delay  max_delay  samples  drop_rate  marks
-------------------------------  ----------  ---------  -------  ---------  -----
dumbbell/pert/seed=1 bottleneck      5.00ms     9.00ms        4     0.0100      0"""


def _bus_off_entries(root):
    def put(key, params, payload, meta):
        path = root / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"key": key, "kind": "dumbbell",
                                    "params": params, "payload": payload,
                                    "meta": meta}))

    delay = {"count": 4, "sum": 0.02, "max": 0.009}
    put("aa01", {"scheme": "pert", "seed": 1},
        {"drop_rate": 0.0, "norm_queue": 0.25, "utilization": 0.98},
        {"wall_time": 2.0, "events": 50000, "attempts": 1,
         "peak_rss_kb": 40960,
         "phases": {"setup": 0.25, "warmup": 0.75, "measure": 1.0},
         "metrics": {"queue.bottleneck.delay": delay,
                     "queue.bottleneck.drops": 1,
                     "queue.bottleneck.enqueues": 99,
                     "queue.bottleneck.marks": 0}})
    put("bb02", {"scheme": "sack-droptail", "seed": 1},
        {"drop_rate": 0.02, "norm_queue": 0.75, "utilization": 0.99},
        {"wall_time": 1.0, "events": 30000, "attempts": 2,
         "peak_rss_kb": 30720,
         "phases": {"setup": 0.125, "warmup": 0.375, "measure": 0.5}})


def test_report_of_a_bus_off_directory_is_unchanged(tmp_path):
    _bus_off_entries(tmp_path)
    assert generate_report(tmp_path) == _BUS_OFF_REPORT.format(
        run_dir=tmp_path)
