"""Dashboard server: the RunView fold, JSON APIs, SSE stream."""

import json
import threading
import time
import urllib.request

import pytest

from repro.fleet import Fleet, JobQueue, Journal
from repro.fleet.journal import JOURNAL_SCHEMA
from repro.obs.bus import BUS_SCHEMA, EventBus
from repro.runner import JobSpec, run_jobs
from repro.runner.cache import ResultCache
from repro.runner.spec import dumbbell_spec
from repro.obs.diff import diff_runs
from repro.obs.report import _scheme_rollup, format_table, generate_report
from repro.serve import RunView, make_server, serve_in_background
from repro.serve.app import tail_events


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
    assert job["sim_now"] == 20.0
    assert job["wall_time"] == 1.5
    assert job["phase"] is None  # warmup closed cleanly
    runs = view.runs()
    assert runs["job_counts"]["done"] == 1
    assert runs["runs"][0]["stats"]["done"] == 1
    assert runs["runs"][0]["finished_ts"] is not None


def test_runview_derives_live_rate_from_heartbeats(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus(path)
    bus.emit("job_started", key="k", kind="d", scheme=None, seed=None,
             attempt=1)
    bus.emit("heartbeat", key="k", sim_now=1.0, events=0, sched=100,
             peak_rss_kb=1)
    bus.close()
    # forge a second beat 2 wall-seconds and 500 sched-events later
    first = json.loads(path.read_text().splitlines()[-1])
    second = dict(first, ts=first["ts"] + 2.0, sched=600, sim_now=3.0)
    with path.open("a") as fh:
        fh.write(json.dumps(second) + "\n")
    view = RunView(tmp_path)
    view.refresh()
    job = view.jobs()[0]
    assert job["state"] == "running"
    assert job["rate"] == pytest.approx(250.0)


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
    assert view.runs()["job_counts"]["failed"] == 1
    # the torn tail completes later: the event must then apply
    with path.open("a") as fh:
        fh.write('y": "k2", "kind": "d", "scheme": null, "seed": null, '
                 '"attempt": 1, "ts": 5.0, "pid": 1}\n')
    view.refresh()
    assert view.runs()["jobs_seen"] == 2


def test_runview_aggregates_fleet_events(tmp_path):
    """The fleet rollup is the journal's fold — the dict ``Fleet.status``
    returns — and an expired lease is no live worker."""
    queue = JobQueue(tmp_path)
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
    assert view.runs()["fleet"] == fleet


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
    assert view.runs()["jobs_seen"] == 0
    assert view.jobs() == []


def test_torn_line_is_read_once_by_journal_view_and_sse(tmp_path):
    """Journal replay, the view and the SSE tail share one reader: a line
    torn mid-write surfaces exactly once, after the append completing it."""
    rec = json.dumps({"v": JOURNAL_SCHEMA, "op": "submit", "key": "k",
                      "kind": "tests.runner.jobs:echo", "params": {},
                      "sweep": "s", "priority": 0, "ts": 1.0})
    ev = json.dumps({"v": BUS_SCHEMA, "type": "job_cached", "key": "k",
                     "ts": 1.0, "pid": 1})
    journal_path, bus_path = tmp_path / "journal.jsonl", tmp_path / "events.jsonl"
    journal_path.write_text(rec[:20])
    bus_path.write_text(ev[:20])
    journal, view = Journal(tmp_path), RunView(tmp_path)
    sse = tail_events(view.bus_path, from_start=True, poll=0.01,
                      keepalive_every=0.01)
    assert journal.read_new() == []
    assert view.refresh() == 0
    assert view.fleet()["counts"]["pending"] == 0
    assert next(sse) == ("keepalive", "")  # the fragment was held back
    with journal_path.open("a") as fh:
        fh.write(rec[20:] + "\n")
    with bus_path.open("a") as fh:
        fh.write(ev[20:] + "\n")
    assert [r["key"] for r in journal.read_new()] == ["k"]
    assert journal.read_new() == []
    assert view.refresh() == 1 and view.refresh() == 0
    assert view.fleet()["counts"]["pending"] == 1
    assert next(sse) == ("event", ev)
    assert next(sse) == ("keepalive", "")  # not the same line again


def test_runview_fleet_is_none_without_fleet_events(tmp_path):
    _emit_lifecycle(tmp_path / "events.jsonl")
    view = RunView(tmp_path)
    view.refresh()
    assert view.fleet() is None
    assert view.runs()["fleet"] is None


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
    assert view.runs()["job_counts"]["done"] == 2


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


def test_report_diff_and_dashboard_roll_up_one_fold(tmp_path, monkeypatch):
    """The report's per-scheme table, ``diff_runs``' A column and
    ``/api/metrics``' schemes are one dict of one fold."""
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

    server, url = serve_in_background(tmp_path)
    try:
        assert _get_json(url + "api/metrics")["schemes"] == schemes
    finally:
        server.shutdown()
        server.server_close()

    diff = diff_runs(tmp_path, tmp_path)
    assert {s: {m: cell["a"] for m, cell in metrics.items()}
            for s, metrics in diff["schemes"].items()} == {
        s: {m: agg[m] for m in diff["schemes"][s]} for s, agg in schemes.items()}

    table = format_table(
        ["scheme", "jobs", "wall", "events", "events/s",
         "drop_rate", "norm_queue", "util"], _scheme_rollup(schemes))
    assert "== events/s by scheme ==\n" + table in generate_report(tmp_path)


# ---------------------------------------------------------------------------
# HTTP layer


@pytest.fixture
def live_server(tmp_path):
    run_jobs(_events_specs(), workers=0, cache=ResultCache(tmp_path),
             bus=tmp_path / "events.jsonl")
    server, url = serve_in_background(tmp_path)
    yield server, url
    server.shutdown()
    server.server_close()


def _get_json(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        assert resp.headers["Content-Type"] == "application/json"
        return json.load(resp)


def test_api_endpoints_serve_run_state(live_server):
    server, url = live_server
    runs = _get_json(url + "api/runs")
    assert runs["bus_exists"] is True
    assert runs["job_counts"]["done"] == 2
    jobs = _get_json(url + "api/jobs")["jobs"]
    assert len(jobs) == 2
    assert all(j["state"] == "done" for j in jobs)
    metrics = _get_json(url + "api/metrics")
    assert metrics["jobs"] == 2
    assert "pert" in metrics["schemes"]


def test_dashboard_page_and_404(live_server):
    server, url = live_server
    with urllib.request.urlopen(url, timeout=10) as resp:
        html = resp.read().decode()
    assert "repro.serve" in html
    assert "/events?replay=1" in html
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(url + "api/nope", timeout=10)
    assert err.value.code == 404


def test_sse_stream_replays_bus_events(live_server):
    server, url = live_server
    req = urllib.request.Request(url + "events?replay=1")
    with urllib.request.urlopen(req, timeout=10) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        datas = []
        while len(datas) < 3:
            line = resp.readline().decode().rstrip("\n")
            if line.startswith("data: "):
                datas.append(json.loads(line[len("data: "):]))
    assert datas[0]["type"] == "run_started"
    assert datas[1]["type"] == "job_started"


def test_sse_stream_sees_events_appended_after_connect(live_server, tmp_path):
    server, url = live_server
    bus_path = server.view.bus_path
    datas = []
    done = threading.Event()

    def reader():
        req = urllib.request.Request(url + "events")
        with urllib.request.urlopen(req, timeout=10) as resp:
            while not datas:
                line = resp.readline().decode().rstrip("\n")
                if line.startswith("data: "):
                    datas.append(json.loads(line[len("data: "):]))
        done.set()

    t = threading.Thread(target=reader, daemon=True)
    t.start()
    time.sleep(0.3)  # let the stream attach at end-of-file
    bus = EventBus(bus_path)
    bus.emit("job_cached", key="late")
    bus.close()
    assert done.wait(10.0), "SSE reader never saw the appended event"
    assert datas[0]["type"] == "job_cached"
    assert datas[0]["key"] == "late"


def test_sse_keepalive_reaches_slow_consumer(tmp_path):
    """An idle stream still carries bytes: comment keepalives hold the
    connection open for consumers (or proxies) that read slowly."""
    server = make_server(tmp_path, port=0, keepalive_every=0.2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        req = urllib.request.Request(f"http://{host}:{port}/events")
        with urllib.request.urlopen(req, timeout=10) as resp:
            keepalives = 0
            deadline = time.monotonic() + 10.0
            while keepalives < 2 and time.monotonic() < deadline:
                line = resp.readline().decode().rstrip("\n")
                if line.startswith(":"):
                    keepalives += 1
                    time.sleep(0.3)  # a consumer slower than the interval
        assert keepalives == 2
    finally:
        server.shutdown()
        server.server_close()


def test_tail_events_keepalive_interval_is_configurable(tmp_path):
    stop = threading.Event()
    stream = tail_events(tmp_path / "events.jsonl", poll=0.05, stop=stop,
                         keepalive_every=0.1)
    kind, text = next(stream)
    assert (kind, text) == ("keepalive", "")
    stop.set()


def test_make_server_binds_ephemeral_port(tmp_path):
    server = make_server(tmp_path, port=0)
    try:
        assert server.server_address[1] != 0
        assert server.view.run_dir == tmp_path
    finally:
        server.server_close()
