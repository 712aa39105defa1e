"""End-to-end: runner sweep -> cache entries/traces on disk -> report CLI."""

import json
import os

import pytest

from repro.atomic import atomic_write
from repro.obs.__main__ import main as obs_main
from repro.obs.report import generate_report
from repro.obs.rundir import RunView, scheme_summary
from repro.obs.trace import read_trace
from repro.runner import run_jobs
from repro.runner.cache import ResultCache
from repro.runner.spec import JobSpec, dumbbell_spec

_SPEC_KW = dict(bandwidth=4e6, duration=5.0, warmup=2.0, n_fwd=3)


def _sweep(tmp_path, env, schemes=("pert",), workers=0):
    cache = ResultCache(tmp_path)
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        specs = [dumbbell_spec(scheme=s, seed=1, **_SPEC_KW) for s in schemes]
        results = run_jobs(specs, workers=workers, cache=cache)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return cache, specs, results


def _entry(cache, spec):
    return json.loads(cache.path_for(spec).read_text())


def test_entry_carries_the_observation(tmp_path):
    cache, specs, results = _sweep(tmp_path, {"REPRO_OBS": "1"})
    assert results[0].ok
    # one record per job: the entry, and no sibling beside it
    assert [p.name for p in cache.path_for(specs[0]).parent.iterdir()] \
        == [cache.path_for(specs[0]).name]
    entry = _entry(cache, specs[0])
    assert entry["key"] == specs[0].cache_key
    assert entry["kind"] == "dumbbell"
    assert entry["params"]["scheme"] == "pert" and entry["params"]["seed"] == 1
    meta = entry["meta"]
    assert meta["events"] == results[0].value["events_processed"]
    assert meta["wall_time"] > 0
    assert meta["attempts"] == 1
    assert set(meta["phases"]) == {"setup", "warmup", "measure"}
    assert meta["peak_rss_kb"] > 0
    # --obs populated the metrics snapshot
    assert "queue.bottleneck.fwd.drops" in meta["metrics"]
    assert results[0].meta == meta


def test_manifest_written_even_without_obs_flags(tmp_path):
    cache, specs, results = _sweep(tmp_path, {})
    meta = _entry(cache, specs[0])["meta"]
    assert "metrics" not in meta  # phases/RSS only
    assert set(meta["phases"]) == {"setup", "warmup", "measure"}


def test_trace_file_roundtrips_and_is_linked(tmp_path):
    cache, specs, results = _sweep(tmp_path, {"REPRO_TRACE": "1"})
    tpath = cache.trace_path_for(specs[0])
    assert tpath.parent == cache.path_for(specs[0]).parent
    assert "trace_file" not in _entry(cache, specs[0])["meta"]
    records = read_trace(tpath)  # validates every record
    assert records
    assert {"enqueue", "queue_sample"} <= {r["type"] for r in records}
    assert records == sorted(records, key=lambda r: r["t"])


def test_obs_and_plain_runs_share_cache_entries(tmp_path):
    cache, specs, first = _sweep(tmp_path, {"REPRO_OBS": "1"})
    cache2, _, second = _sweep(tmp_path, {})
    assert not first[0].cached and second[0].cached
    assert second[0].value == first[0].value


def test_parallel_workers_write_one_record_per_job(tmp_path):
    cache, specs, results = _sweep(
        tmp_path, {"REPRO_TRACE": "1"}, schemes=("pert", "sack-droptail"),
        workers=2,
    )
    assert all(r.ok for r in results)
    for spec in specs:
        assert "phases" in _entry(cache, spec)["meta"]
        assert cache.trace_path_for(spec).exists()
    assert not list(tmp_path.rglob("*.manifest.json"))


def test_generate_report_on_real_sweep(tmp_path):
    _sweep(tmp_path, {"REPRO_TRACE": "1"}, schemes=("pert", "sack-droptail"))
    report = generate_report(tmp_path)
    assert "jobs          : 2" in report
    assert "== events/s by scheme ==" in report
    assert "pert" in report and "sack-droptail" in report
    assert "== wall time by phase ==" in report
    assert "measure" in report
    assert "== queue delay / drop summary" in report
    assert "== traces ==" in report
    assert "queue delay: mean=" in report
    # the trace section counts every schema-2 type a run produced
    for rtype in ("signal=", "early_response=", "loss=", "cwnd_sample="):
        assert rtype in report


def test_report_cli_main(tmp_path, capsys):
    _sweep(tmp_path, {"REPRO_OBS": "1"})
    assert obs_main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "== events/s by scheme ==" in out


def test_report_on_empty_dir(tmp_path, capsys):
    assert obs_main(["report", str(tmp_path)]) == 0
    assert "no job records found" in capsys.readouterr().out


def _put(root, key, params, payload, meta):
    """Write one cache entry in the runner's layout; returns its path."""
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"key": key, "kind": "dumbbell", "params": params,
                                "payload": payload, "meta": meta}))
    return path


#: what an entry written before entries carried the observation holds
_PARENT_META = {"events": 300, "wall_time": 1.5, "attempts": 1}


def test_runview_takes_only_the_entry_layout(tmp_path):
    """Stale manifests left by older runs, misplaced ``*.json``, traces
    and the bus file are neither rows nor warnings; only
    ``<key[:2]>/<key>.json`` is an entry."""
    _put(tmp_path, "ab12", {"scheme": "red", "seed": 2}, {"drop_rate": 0.1},
         _PARENT_META)
    stale = {"schema": 1, "key": "ab12", "kind": "dumbbell", "params": {},
             "scheme": "red", "wall_time": 9.0, "events": 1}
    (tmp_path / "ab" / "ab12.manifest.json").write_text(json.dumps(stale))
    (tmp_path / "ab" / "ab12.trace.jsonl").write_text("{torn")
    (tmp_path / "cd").mkdir()
    (tmp_path / "cd" / "ef34.json").write_text("{torn")  # not under ef/
    (tmp_path / "events.jsonl").write_text("")
    view = RunView(tmp_path)
    view.refresh()
    assert [r["key"] for r in view.records] == ["ab12"]
    assert view.warnings == [] and view.validations == []
    assert view.records[0]["path"].endswith("ab12.json")


def test_torn_entry_is_a_warning_and_stays_on_disk(tmp_path):
    _put(tmp_path, "k1", {"seed": 2}, {}, _PARENT_META)
    full = json.dumps({"key": "k2", "payload": {}, "meta": {}, "params": {}})
    torn = tmp_path / "k2" / "k2.json"
    torn.parent.mkdir()
    torn.write_text(full[: len(full) // 2])  # a valid prefix, cut mid-object
    shape = tmp_path / "k3" / "k3.json"
    shape.parent.mkdir()
    shape.write_text("[1, 2, 3]")
    stray = _put(tmp_path, "k4", {}, {}, _PARENT_META)
    stray.write_text(stray.read_text().replace('"k4"', '"k5"'))  # wrong key

    view = RunView(tmp_path)
    view.refresh()
    view.refresh()
    assert [r["key"] for r in view.records] == ["k1"]
    by_name = {w["path"].rsplit("/", 1)[-1]: w["error"] for w in view.warnings}
    assert set(by_name) == {"k2.json", "k3.json", "k4.json"}
    assert "JSONDecodeError" in by_name["k2.json"]
    assert "not an object" in by_name["k3.json"]
    assert "not a cache entry" in by_name["k4.json"]
    assert torn.exists() and shape.exists() and stray.exists()  # read-only
    # the report must still render, and must surface the skips
    report = generate_report(tmp_path, include_trace=False)
    assert "skipped files (3 unreadable)" in report


def test_second_refresh_parses_no_unchanged_entry(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    specs = [JobSpec("tests.runner.jobs:events", {"value": i, "events": 5})
             for i in range(3)]
    run_jobs(specs, workers=0, cache=cache, bus=False)
    view = RunView(tmp_path)
    view.refresh()
    assert len(view.records) == 3
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    def parsed():
        return [p for p in opened if p.endswith(".json")]

    monkeypatch.setattr("builtins.open", counting_open)
    view.refresh()
    assert parsed() == []
    assert len(view.records) == 3
    new = JobSpec("tests.runner.jobs:events", {"value": 9, "events": 5})
    run_jobs(specs[:1] + [new], workers=0, cache=cache, bus=False)
    opened.clear()
    view.refresh()
    assert len(view.records) == 4
    assert parsed() == [str(cache.path_for(new))]


def test_validation_section_reads_the_verdicts(tmp_path):
    vdir = tmp_path / "validation"
    vdir.mkdir()
    (vdir / "verdict-quick.json").write_text(json.dumps({
        "schema": 1, "tier": "quick", "status": "pass", "figures": [
            {"figure": "fig6", "status": "pass", "wall_time": 1.25,
             "metrics": [{"id": "a", "deviation_pct": -3.0},
                         {"id": "b", "deviation_pct": 1.0}]}]}))
    (vdir / "quick-fig6.manifest.json").write_text("{}")  # left by old runs
    view = RunView(tmp_path)
    view.refresh()
    assert view.records == [] and view.warnings == []
    assert [(v["figure"], v["tier"]) for v in view.validations] \
        == [("fig6", "quick")]
    report = generate_report(tmp_path)
    assert "(validation verdicts only)" in report
    assert "fig6 (quick)" in report and "-3.00%" in report
    # the next `validate run` replaces the file (atomically): re-read
    verdict = json.loads((vdir / "verdict-quick.json").read_text())
    verdict["figures"][0]["status"] = "fail"
    atomic_write(vdir / "verdict-quick.json", json.dumps(verdict).encode())
    view.refresh()
    assert [v["status"] for v in view.validations] == ["fail"]


def test_scheme_summary_empty_set():
    assert scheme_summary([]) == {}
    report_rows = generate_report.__doc__  # sanity: API intact
    assert report_rows is not None


def test_scheme_summary_heterogeneous_manifests():
    # one job with full metrics, one with no phases/rss/result, one with
    # a NaN metric and no scheme at all (falls back to kind)
    records = [
        {
            "kind": "dumbbell", "scheme": "pert", "wall_time": 2.0,
            "events": 1000,
            "result": {"drop_rate": 0.02, "norm_queue": 0.5, "utilization": 0.9},
            "metrics": {"queue.bottleneck.delay": {"count": 4, "sum": 0.2}},
        },
        {"kind": "dumbbell", "scheme": "pert", "wall_time": 0.0, "events": 0},
        {
            "kind": "dumbbell", "scheme": None, "wall_time": 1.0, "events": 500,
            "result": {"drop_rate": float("nan")},
        },
    ]
    summary = scheme_summary(records)
    assert set(summary) == {"pert", "dumbbell"}
    pert = summary["pert"]
    assert pert["jobs"] == 2
    assert pert["events"] == 1000
    # missing metrics average over the jobs that reported them only
    assert pert["drop_rate"] == pytest.approx(0.02)
    assert pert["queue_delay"] == pytest.approx(0.05)
    # NaN never leaks into means; scheme-less jobs group under kind
    assert summary["dumbbell"]["drop_rate"] is None
    assert summary["dumbbell"]["queue_delay"] is None


def test_report_on_manifests_without_phases_or_rss(tmp_path):
    """An entry written before entries carried the observation is a done
    row, and the scheme rollup counts it."""
    _put(tmp_path, "k9", {"seed": 1, "scheme": "red"},
         {"drop_rate": 0.25, "series": [1, 2]}, _PARENT_META)
    view = RunView(tmp_path)
    view.refresh()
    (job,) = view.jobs()
    assert job["state"] == "done" and job["scheme"] == "red"
    assert "phases" not in job and "peak_rss_kb" not in job
    red = view.metrics()["schemes"]["red"]
    assert red["jobs"] == 1 and red["events"] == 300
    assert red["drop_rate"] == 0.25
    assert view.records[0]["result"] == {"drop_rate": 0.25}
    report = generate_report(tmp_path, include_trace=False)
    assert "red" in report
    assert "jobs          : 1" in report


def test_runner_stats_aggregate_wall_and_rss(tmp_path):
    snapshots = []
    cache = ResultCache(tmp_path)
    specs = [dumbbell_spec(scheme="pert", seed=1, **_SPEC_KW)]
    results = run_jobs(
        specs, workers=0, cache=cache, progress=lambda s: snapshots.append(s.snapshot()),
    )
    assert results[0].ok
    last = snapshots[-1]
    assert last["wall_time"] > 0
    assert last["peak_rss_kb"] > 0
