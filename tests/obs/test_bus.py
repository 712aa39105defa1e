"""Event bus: schema, transport, scopes, executor wiring, determinism."""

import json
import os
import time

import pytest

from repro.obs.bus import (
    BUS_FILENAME,
    BUS_SCHEMA,
    EVENT_TYPES,
    EventBus,
    active_bus,
    bus_scope,
    emit,
    heartbeat_loop,
    iter_events,
    read_events,
    resolve_bus_path,
    resolve_heartbeat_interval,
    validate_event,
)
from repro.obs.runtime import note_simulator, observe_job, phase
from repro.runner import JobSpec, run_jobs
from repro.runner.cache import ResultCache
from repro.runner.spec import dumbbell_spec


def _types(path):
    return [e["type"] for e in read_events(path)]


# ---------------------------------------------------------------------------
# schema + emit


def test_validate_event_accepts_every_documented_type():
    for etype, fields in EVENT_TYPES.items():
        rec = {"v": BUS_SCHEMA, "type": etype, "ts": 1.0, "pid": 1}
        rec.update({f: None for f in fields})
        validate_event(rec)  # must not raise


def test_validate_event_rejects_unknown_type_and_missing_fields():
    with pytest.raises(ValueError):
        validate_event({"v": BUS_SCHEMA, "type": "nope", "ts": 1.0, "pid": 1})
    with pytest.raises(ValueError):
        validate_event({"v": BUS_SCHEMA, "type": "job_started", "ts": 1.0,
                        "pid": 1})  # no key/kind/attempt


def test_emit_writes_single_schema_stamped_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus(path, job="k1")
    bus.emit("job_started", kind="dumbbell", attempt=1)
    bus.emit("job_finished", wall_time=0.5, events=100, attempts=1)
    bus.close()
    events = read_events(path)
    assert [e["type"] for e in events] == ["job_started", "job_finished"]
    for e in events:
        assert e["v"] == BUS_SCHEMA
        assert e["key"] == "k1"  # auto-stamped from the scope's job
        assert isinstance(e["ts"], float) and isinstance(e["pid"], int)


def test_emit_refuses_oversized_records(tmp_path):
    bus = EventBus(tmp_path / "e.jsonl", job="k")
    with pytest.raises(ValueError):
        bus.emit("job_failed", error="x" * 10_000, attempts=1)
    bus.close()


def test_emit_is_best_effort_after_close(tmp_path):
    bus = EventBus(tmp_path / "e.jsonl", job="k")
    bus.close()
    bus.emit("job_cached")  # must not raise
    bus.close()  # idempotent


# ---------------------------------------------------------------------------
# scopes + module-level emit


def test_bus_scope_sets_and_clears_active_bus(tmp_path):
    path = tmp_path / "e.jsonl"
    assert active_bus() is None
    with bus_scope(path, job="k7") as bus:
        assert active_bus() is bus
        emit("job_cached")
    assert active_bus() is None
    emit("job_cached")  # no active bus: silently dropped
    assert _types(path) == ["job_cached"]


def test_bus_scope_none_is_noop():
    with bus_scope(None) as bus:
        assert bus is None
        assert active_bus() is None


def test_phase_events_flow_through_active_bus(tmp_path):
    path = tmp_path / "e.jsonl"
    with bus_scope(path, job="kp"), observe_job():
        with phase("warmup"):
            pass
    events = read_events(path)
    assert [e["type"] for e in events] == ["phase_started", "phase_finished"]
    assert events[1]["phase"] == "warmup"
    assert events[1]["seconds"] >= 0.0


# ---------------------------------------------------------------------------
# path + interval resolution


def test_resolve_bus_path_precedence(tmp_path, monkeypatch):
    store = ResultCache(tmp_path)
    monkeypatch.delenv("REPRO_BUS", raising=False)
    assert resolve_bus_path(store) is None  # default off
    assert resolve_bus_path(store, bus=False) is None
    explicit = tmp_path / "custom.jsonl"
    assert resolve_bus_path(store, bus=explicit) == explicit
    monkeypatch.setenv("REPRO_BUS", "0")
    assert resolve_bus_path(store) is None
    monkeypatch.setenv("REPRO_BUS", "1")
    assert resolve_bus_path(store) == tmp_path / BUS_FILENAME
    monkeypatch.setenv("REPRO_BUS", str(explicit))
    assert resolve_bus_path(store) == explicit
    # arg beats env; truthy env without a store has nowhere to default
    monkeypatch.setenv("REPRO_BUS", "1")
    assert resolve_bus_path(store, bus=False) is None
    assert resolve_bus_path(None) is None


def test_resolve_heartbeat_interval(monkeypatch):
    monkeypatch.delenv("REPRO_BUS_INTERVAL", raising=False)
    assert resolve_heartbeat_interval() == 1.0
    monkeypatch.setenv("REPRO_BUS_INTERVAL", "0.25")
    assert resolve_heartbeat_interval() == 0.25
    monkeypatch.setenv("REPRO_BUS_INTERVAL", "0.0001")
    assert resolve_heartbeat_interval() == 0.05  # clamped
    monkeypatch.setenv("REPRO_BUS_INTERVAL", "junk")
    assert resolve_heartbeat_interval() == 1.0


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_a_non_finite_heartbeat_interval(monkeypatch, raw):
    # the knob falls back as for junk; an explicit argument raises
    monkeypatch.setenv("REPRO_BUS_INTERVAL", raw)
    assert resolve_heartbeat_interval() == 1.0
    with pytest.raises(ValueError, match="interval"):
        resolve_heartbeat_interval(float(raw))


# ---------------------------------------------------------------------------
# torn-tail tolerance


def test_iter_events_skips_bad_lines_and_torn_tail(tmp_path):
    path = tmp_path / "e.jsonl"
    good = json.dumps({"v": BUS_SCHEMA, "type": "job_cached", "ts": 1.0,
                       "pid": 1, "key": "k"})
    path.write_text(good + "\n" + "{garbage\n" + good + "\n" + good[:20])
    events = list(iter_events(path))
    assert len(events) == 2  # bad line skipped, torn tail not yielded
    assert read_events(tmp_path / "missing.jsonl") == []


# ---------------------------------------------------------------------------
# heartbeats


class _FakeSim:
    now = 12.5
    events_processed = 400
    _seq = 777


def test_heartbeat_loop_emits_final_beat_with_simulator_sample(tmp_path):
    path = tmp_path / "e.jsonl"
    with bus_scope(path, job="kh") as bus, observe_job():
        note_simulator(_FakeSim())
        with heartbeat_loop(bus, interval=30.0):
            pass  # interval never elapses; the final beat still fires
    beats = [e for e in read_events(path) if e["type"] == "heartbeat"]
    assert len(beats) == 1
    assert beats[0]["sim_now"] == 12.5
    assert beats[0]["events"] == 400
    assert beats[0]["sched"] == 777


def test_heartbeat_loop_noop_without_bus():
    with heartbeat_loop(None):
        pass  # must not raise or spawn anything observable


# ---------------------------------------------------------------------------
# executor wiring (serial + parallel + retry/failure lifecycles)


@pytest.mark.parametrize("workers", [0, 2])
def test_run_jobs_emits_lifecycle_events(tmp_path, workers):
    path = tmp_path / "events.jsonl"
    specs = [
        JobSpec(kind="tests.runner.jobs:events",
                params={"value": i, "events": 10, "seed": i, "scheme": "pert"})
        for i in range(3)
    ]
    results = run_jobs(specs, workers=workers, cache=ResultCache(tmp_path),
                       bus=path)
    assert all(r.ok for r in results)
    types = _types(path)
    assert types[0] == "run_started"
    assert types[-1] == "run_finished"
    assert types.count("job_started") == 3
    assert types.count("job_finished") == 3
    finished = [e for e in read_events(path) if e["type"] == "job_finished"]
    assert {e["events"] for e in finished} == {10}
    run_finished = read_events(path)[-1]
    assert run_finished["stats"]["done"] == 3

    # second pass: everything cached, still announced on the bus
    run_jobs(specs, workers=workers, cache=ResultCache(tmp_path), bus=path)
    assert _types(path).count("job_cached") == 3


def test_run_jobs_emits_retry_and_failure_events(tmp_path):
    path = tmp_path / "events.jsonl"
    flaky = JobSpec(kind="tests.runner.jobs:flaky",
                    params={"marker": str(tmp_path / "marker")})
    doomed = JobSpec(kind="tests.runner.jobs:boom", params={})
    results = run_jobs([flaky, doomed], workers=0, cache=None, retries=1,
                       bus=path)
    assert results[0].ok and not results[1].ok
    types = _types(path)
    assert "job_retried" in types  # flaky's first attempt
    assert "job_failed" in types  # boom exhausted its retries
    failed = [e for e in read_events(path) if e["type"] == "job_failed"]
    assert "injected failure" in failed[0]["error"]


def test_results_identical_with_bus_on_and_off(tmp_path):
    specs = [
        JobSpec(kind="tests.runner.jobs:events",
                params={"value": i, "events": 5}) for i in range(3)
    ]
    off = run_jobs(specs, workers=0, cache=None, bus=False)
    on = run_jobs(specs, workers=0, cache=None,
                  bus=tmp_path / "events.jsonl")
    assert [r.value for r in off] == [r.value for r in on]


def test_cache_entries_unchanged_by_bus(tmp_path):
    spec = JobSpec(kind="tests.runner.jobs:events",
                   params={"value": 1, "events": 5})
    run_jobs([spec], workers=0, cache=ResultCache(tmp_path / "off"),
             bus=False)
    run_jobs([spec], workers=0, cache=ResultCache(tmp_path / "on"),
             bus=tmp_path / "on" / "events.jsonl")
    entry = spec.cache_key + ".json"
    off_entry = json.loads(next((tmp_path / "off").rglob(entry)).read_text())
    on_entry = json.loads(next((tmp_path / "on").rglob(entry)).read_text())
    # entries carry wall-clock facts (wall_time, peak RSS) that differ
    # run to run regardless of the bus; every deterministic field —
    # including the golden-checked result payload — must be identical
    for rec in (off_entry, on_entry):
        for wall_field in ("wall_time", "peak_rss_kb"):
            rec.pop(wall_field, None)
            rec.get("meta", {}).pop(wall_field, None)
    assert off_entry == on_entry
    # the only extra file the bus leaves behind is the bus file itself
    off_files = {str(p.relative_to(tmp_path / "off"))
                 for p in (tmp_path / "off").rglob("*") if p.is_file()}
    on_files = {str(p.relative_to(tmp_path / "on"))
                for p in (tmp_path / "on").rglob("*") if p.is_file()}
    assert on_files - off_files == {BUS_FILENAME}


def test_dumbbell_sweep_identical_with_bus_on_and_off(tmp_path):
    """A real packet sweep, not a fake job: the bus-on run returns the
    bus-off run's values, and its stream is schema-valid from
    ``run_started`` to ``run_finished`` with one ``job_finished`` per
    spec."""
    specs = [dumbbell_spec(scheme=scheme, bandwidth=bw, n_fwd=3,
                           duration=4.0, warmup=1.5, seed=3)
             for scheme in ("pert", "sack-droptail") for bw in (2e6, 4e6)]
    path = tmp_path / "events.jsonl"
    # no store: both sweeps simulate every spec, neither reads the other
    on = run_jobs(specs, workers=0, cache=False, bus=path)
    off = run_jobs(specs, workers=0, cache=False, bus=False)
    assert all(r.ok and not r.cached for r in on + off)
    assert [r.value for r in on] == [r.value for r in off]

    lines = path.read_text().splitlines()
    events = [json.loads(line) for line in lines]
    for event in events:
        validate_event(event)
    types = [e["type"] for e in events]
    assert types[0] == "run_started" and types[-1] == "run_finished"
    finished = [e["key"] for e in events if e["type"] == "job_finished"]
    assert sorted(finished) == sorted(s.cache_key for s in specs)
