"""Equivalence suite: serial, parallel, cached and fleeted paths are identical.

This is the contract that makes the runner safe to put under every
figure: fan-out, caching and the queue backend (in-memory list or fleet
journal) are pure execution strategies and must never change a single
row.
"""

import json

import pytest

from repro.experiments.sweep import sweep_dumbbell
from repro.fleet import Fleet
from repro.runner import ResultCache, dumbbell_spec, run_jobs

#: tiny but non-trivial 2-scheme x 3-point grid (seconds, not minutes)
GRID_POINTS = [{"bandwidth": 1e6}, {"bandwidth": 2e6}, {"bandwidth": 3e6}]
GRID_SCHEMES = ("pert", "sack-droptail")
GRID_KW = dict(n_fwd=2, duration=3.0, warmup=1.0, seed=3)


def run_grid(**overrides):
    kw = dict(GRID_KW)
    kw.update(overrides)
    return sweep_dumbbell(GRID_POINTS, schemes=GRID_SCHEMES, **kw)


def test_parallel_rows_equal_serial_rows_exactly():
    serial = run_grid(workers=0, cache=False)
    parallel = run_grid(workers=2, cache=False)
    assert len(serial) == len(GRID_POINTS) * len(GRID_SCHEMES)
    assert parallel == serial  # row-for-row, bit-for-bit


def test_every_strategy_yields_the_same_rows(tmp_path):
    """One spec list: serial == workers=2 == cached == fleeted serial ==
    fleeted workers=2 == a re-run of a drained fleet."""
    serial = run_grid(workers=0, cache=False)
    strategies = {
        "workers=2": dict(workers=2, cache=False),
        "cold cache": dict(workers=2, cache=tmp_path / "cache"),
        "warm cache": dict(workers=0, cache=tmp_path / "cache"),
        "fleet workers=0": dict(workers=0, fleet=tmp_path / "fleet0"),
        "fleet workers=2": dict(workers=2, fleet=tmp_path / "fleet2"),
        "fleet re-run": dict(workers=2, fleet=tmp_path / "fleet2"),
        "fleet over the runner's cache": dict(
            workers=0, fleet=Fleet(tmp_path / "fleet3", store=tmp_path / "cache")),
    }
    for name, kw in strategies.items():
        assert run_grid(**kw) == serial, name
    # the last two computed nothing: drained journal, pre-warmed store
    assert Fleet(tmp_path / "fleet2").status()["computed"] == {
        "fresh": len(serial), "hit": 0}
    assert Fleet(tmp_path / "fleet3").status()["computed"] == {
        "fresh": 0, "hit": len(serial)}


def test_second_run_is_fully_cached_with_identical_rows(tmp_path):
    snaps = []
    first = run_grid(workers=2, cache=tmp_path,
                     progress=lambda s: snaps.append(s.snapshot()))
    assert snaps[-1]["done"] == len(first)
    assert snaps[-1]["cached"] == 0
    assert snaps[-1]["events"] > 0  # live-simulation throughput telemetry

    snaps.clear()
    second = run_grid(workers=2, cache=tmp_path,
                      progress=lambda s: snaps.append(s.snapshot()))
    assert second == first
    assert snaps[-1]["cached"] == len(first)  # 100% cache hits
    assert snaps[-1]["done"] == 0 and snaps[-1]["failed"] == 0


def test_cache_serves_serial_and_parallel_paths_alike(tmp_path):
    serial = run_grid(workers=0, cache=tmp_path)
    cached_parallel = run_grid(workers=2, cache=tmp_path)
    assert cached_parallel == serial


def test_partial_cache_only_simulates_new_points(tmp_path):
    run_grid(workers=0, cache=tmp_path)
    extra_point = [{"bandwidth": 4e6}]
    snaps = []
    rows = sweep_dumbbell(
        GRID_POINTS + extra_point, schemes=GRID_SCHEMES, workers=0,
        cache=tmp_path, progress=lambda s: snaps.append(s.snapshot()),
        **GRID_KW,
    )
    assert len(rows) == (len(GRID_POINTS) + 1) * len(GRID_SCHEMES)
    assert snaps[-1]["cached"] == len(GRID_POINTS) * len(GRID_SCHEMES)
    assert snaps[-1]["done"] == len(GRID_SCHEMES)  # only the new point ran


def test_run_jobs_preserves_spec_order_under_fanout(tmp_path):
    specs = [
        dumbbell_spec(scheme, bandwidth=bw, **GRID_KW)
        for bw in (1e6, 2e6, 3e6)
        for scheme in GRID_SCHEMES
    ]
    results = run_jobs(specs, workers=3, cache=ResultCache(tmp_path))
    assert [r.spec for r in results] == specs
    assert all(r.ok for r in results)
    # payloads match a direct serial execution of the same specs
    serial = run_jobs(specs, workers=0, cache=False)
    assert [r.value for r in results] == [r.value for r in serial]


def test_cached_payload_equals_fresh_payload_via_json(tmp_path):
    spec = dumbbell_spec("pert", bandwidth=2e6, **GRID_KW)
    fresh = run_jobs([spec], workers=0, cache=ResultCache(tmp_path))[0]
    cached = run_jobs([spec], workers=0, cache=ResultCache(tmp_path))[0]
    assert not fresh.cached and cached.cached
    # JSON round-trip through the cache must not perturb any value
    assert cached.value == fresh.value


def test_failed_jobs_yield_marked_rows_not_exceptions():
    rows = sweep_dumbbell(
        [{"bandwidth": 2e6}], schemes=("pert", "no-such-scheme"),
        workers=0, cache=False, retries=0, **GRID_KW,
    )
    ok = [r for r in rows if not r.get("failed")]
    bad = [r for r in rows if r.get("failed")]
    assert len(ok) == 1 and ok[0]["scheme"] == "pert"
    assert len(bad) == 1 and bad[0]["scheme"] == "no-such-scheme"
    assert "error" in bad[0]
    assert bad[0]["norm_queue"] != bad[0]["norm_queue"]  # NaN marker


def test_the_benchmark_sweep_is_identical_at_every_worker_count(tmp_path):
    """``sweep.runner``'s 32 points: payloads and cache entries are the
    same bytes whether attempts ran in-process, all on one long-lived
    worker or spread over four, and in whichever order they were handed
    out.  (Of an entry, everything but the stopwatch and process readings
    in ``meta``: ``wall_time``, ``phases`` and ``peak_rss_kb``.)"""
    from benchmarks.e2e.workloads import sweep_specs

    specs = sweep_specs(seed=2, smoke=False)
    assert len(specs) == 32

    def sweep(name, workers, order=specs):
        cache = ResultCache(tmp_path / name)
        results = run_jobs(order, workers=workers, cache=cache)
        assert all(r.ok and not r.cached for r in results)
        entries = {}
        for path in sorted(cache.root.glob("??/*.json")):
            entry = json.loads(path.read_bytes())
            for reading in ("wall_time", "phases", "peak_rss_kb"):
                del entry["meta"][reading]
            entries[path.name] = json.dumps(entry)
        payloads = {r.spec.cache_key: json.dumps(r.value) for r in results}
        return payloads, entries

    serial = sweep("w0", 0)
    assert len(serial[1]) == 32
    for workers in (1, 2, 4):
        assert sweep(f"w{workers}", workers) == serial, workers
    assert sweep("reversed", 2, specs[::-1]) == serial
