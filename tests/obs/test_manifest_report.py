"""End-to-end: runner sweep -> manifests/traces on disk -> report CLI."""

import json
import os

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    load_manifests,
    load_manifests_with_warnings,
    write_manifest,
)
from repro.obs.report import generate_report
from repro.obs.rundir import scheme_summary
from repro.obs.trace import read_trace
from repro.runner import run_jobs
from repro.runner.cache import ResultCache
from repro.runner.spec import dumbbell_spec

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


def test_manifest_written_next_to_cache_entry(tmp_path):
    cache, specs, results = _sweep(tmp_path, {"REPRO_OBS": "1"})
    assert results[0].ok
    mpath = cache.manifest_path_for(specs[0])
    assert mpath.exists()
    assert mpath.parent == cache.path_for(specs[0]).parent
    manifest = json.loads(mpath.read_text())
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["key"] == specs[0].cache_key
    assert manifest["kind"] == "dumbbell"
    assert manifest["scheme"] == "pert" and manifest["seed"] == 1
    assert manifest["events"] == results[0].value["events_processed"]
    assert manifest["wall_time"] > 0
    assert manifest["attempts"] == 1
    assert set(manifest["phases"]) == {"setup", "warmup", "measure"}
    assert manifest["peak_rss_kb"] > 0
    assert manifest["result"]["drop_rate"] == results[0].value["drop_rate"]
    # --obs populated the metrics snapshot
    assert "queue.bottleneck.fwd.drops" in manifest["metrics"]


def test_manifest_written_even_without_obs_flags(tmp_path):
    cache, specs, results = _sweep(tmp_path, {})
    manifest = json.loads(cache.manifest_path_for(specs[0]).read_text())
    assert "metrics" not in manifest  # phases/RSS only
    assert set(manifest["phases"]) == {"setup", "warmup", "measure"}


def test_trace_file_roundtrips_and_is_linked(tmp_path):
    cache, specs, results = _sweep(tmp_path, {"REPRO_TRACE": "1"})
    manifest = json.loads(cache.manifest_path_for(specs[0]).read_text())
    tpath = cache.trace_path_for(specs[0])
    assert manifest["trace_file"] == tpath.name
    records = read_trace(tpath)  # validates every record
    assert records
    assert {"enqueue", "queue_sample"} <= {r["type"] for r in records}
    assert records == sorted(records, key=lambda r: r["t"])


def test_obs_and_plain_runs_share_cache_entries(tmp_path):
    cache, specs, first = _sweep(tmp_path, {"REPRO_OBS": "1"})
    cache2, _, second = _sweep(tmp_path, {})
    assert not first[0].cached and second[0].cached
    assert second[0].value == first[0].value


def test_parallel_workers_also_write_manifests(tmp_path):
    cache, specs, results = _sweep(
        tmp_path, {"REPRO_TRACE": "1"}, schemes=("pert", "sack-droptail"),
        workers=2,
    )
    assert all(r.ok for r in results)
    for spec in specs:
        assert cache.manifest_path_for(spec).exists()
        assert cache.trace_path_for(spec).exists()


def test_generate_report_on_real_sweep(tmp_path):
    _sweep(tmp_path, {"REPRO_TRACE": "1", "REPRO_PROFILE": "1"},
           schemes=("pert", "sack-droptail"))
    report = generate_report(tmp_path)
    assert "jobs          : 2" in report
    assert "== events/s by scheme ==" in report
    assert "pert" in report and "sack-droptail" in report
    assert "== wall time by phase ==" in report
    assert "measure" in report
    assert "== hottest callbacks" in report
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
    assert "no manifests found" in capsys.readouterr().out


def test_load_manifests_skips_corrupt_files(tmp_path):
    good = build_manifest(
        key="k1", kind="dumbbell", params={"seed": 2}, wall_time=0.1,
        events=10, attempts=1,
    )
    write_manifest(tmp_path / "aa" / "k1.manifest.json", good)
    (tmp_path / "aa" / "k2.manifest.json").write_text("{torn")
    loaded = load_manifests(tmp_path)
    assert len(loaded) == 1
    assert loaded[0]["key"] == "k1"
    assert loaded[0]["_path"].endswith("k1.manifest.json")


def test_load_manifests_with_warnings_reports_truncated_file(tmp_path):
    good = build_manifest(
        key="k1", kind="dumbbell", params={"seed": 2}, wall_time=0.1,
        events=10, attempts=1,
    )
    write_manifest(tmp_path / "k1.manifest.json", good)
    # a torn write from a killed run: valid JSON prefix, cut mid-object
    full = json.dumps(good)
    (tmp_path / "k2.manifest.json").write_text(full[: len(full) // 2])
    # wrong top-level shape entirely
    (tmp_path / "k3.manifest.json").write_text("[1, 2, 3]")

    manifests, warnings = load_manifests_with_warnings(tmp_path)
    assert [m["key"] for m in manifests] == ["k1"]
    assert len(warnings) == 2
    by_path = {w["path"].rsplit("/", 1)[-1]: w["error"] for w in warnings}
    assert "JSONDecodeError" in by_path["k2.manifest.json"]
    assert "not an object" in by_path["k3.manifest.json"]
    # the report must still render, and must surface the skips
    report = generate_report(tmp_path, include_trace=False)
    assert "skipped manifests (2 unreadable)" in report


def test_scheme_summary_empty_set():
    assert scheme_summary([]) == {}
    report_rows = generate_report.__doc__  # sanity: API intact
    assert report_rows is not None


def test_scheme_summary_heterogeneous_manifests():
    # one job with full metrics, one with no phases/rss/result, one with
    # a NaN metric and no scheme at all (falls back to kind)
    manifests = [
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
    summary = scheme_summary(manifests)
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
    m = build_manifest(
        key="k9", kind="dumbbell", params={"seed": 1, "scheme": "red"},
        wall_time=1.5, events=300, attempts=1,
    )
    assert "phases" not in m and "peak_rss_kb" not in m
    write_manifest(tmp_path / "k9.manifest.json", m)
    report = generate_report(tmp_path, include_trace=False)
    assert "red" in report
    assert "1 jobs" not in report  # header says "jobs          : 1"
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
