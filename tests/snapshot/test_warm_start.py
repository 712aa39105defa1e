"""Warm-started sweeps: one warm-up per scheme, cold-identical rows."""

from __future__ import annotations

import pytest

from repro.experiments.common import (dumbbell_warm_job, run_dumbbell,
                                     run_dumbbell_warm, warm_dumbbell_bytes)
from repro.experiments.scenarios import ScenarioPoint, ScenarioSpec
from repro.experiments.sweep import sweep_dumbbell
from repro.obs.manifest import load_manifests

BASE = dict(bandwidth=2e6, rtt=0.04, n_fwd=2, warmup=1.0, seed=3)
DURATIONS = (2.0, 2.5, 3.0, 3.5)
POINTS = [{"duration": d} for d in DURATIONS]
SCHEMES = ("pert", "sack-droptail")


def test_warm_rows_equal_cold_rows_exactly():
    cold = sweep_dumbbell(POINTS, SCHEMES, cache=False, **BASE)
    warm = sweep_dumbbell(POINTS, SCHEMES, cache=False, warm_start=True, **BASE)
    assert warm == cold  # bit-identical floats, same row order


def test_warm_start_rejects_non_duration_overrides():
    points = [{"duration": 2.0}, {"duration": 2.5, "n_fwd": 4}]
    with pytest.raises(ValueError, match="duration"):
        sweep_dumbbell(points, SCHEMES, cache=False, warm_start=True, **BASE)


def test_warm_sweep_is_one_runner_job_per_scheme():
    """``--progress`` sees the warm jobs: the hook fires once per scheme."""
    snaps = []
    sweep_dumbbell(POINTS, SCHEMES, cache=False, warm_start=True,
                   progress=lambda stats: snaps.append(stats.snapshot()), **BASE)
    assert [s["done"] for s in snaps] == [1, 2]
    assert snaps[-1]["total"] == len(SCHEMES)
    assert snaps[-1]["events"] > 0


def test_warm_job_counts_the_warm_up_once():
    cold = [run_dumbbell("pert", duration=d, **BASE).events_processed
            for d in DURATIONS[:2]]
    one = dumbbell_warm_job(dict(BASE, scheme="pert", durations=DURATIONS[:1]))
    assert one["events_processed"] == cold[0]
    two = dumbbell_warm_job(dict(BASE, scheme="pert", durations=DURATIONS[:2]))
    assert [p["events_processed"] for p in two["payloads"]] == cold
    assert cold[1] < two["events_processed"] < sum(cold)


def test_warm_sweep_profiled_on_workers_equals_cold(tmp_path, monkeypatch):
    """Under ``REPRO_PROFILE`` the warm capture detaches the job's profiler
    and every restored clone gets it back: rows equal the cold ones and
    each warm job's manifest carries a profile."""
    cold = sweep_dumbbell(POINTS, SCHEMES, cache=False, workers=0, **BASE)
    monkeypatch.setenv("REPRO_PROFILE", "1")
    warm = sweep_dumbbell(POINTS, SCHEMES, cache=tmp_path, workers=2,
                          warm_start=True, **BASE)
    assert warm == cold
    manifests = load_manifests(tmp_path)
    assert sorted(m["params"]["scheme"] for m in manifests) == sorted(SCHEMES)
    assert all(m["profile"] for m in manifests)


def test_warm_continuations_are_independent():
    """One snapshot body serves every duration; order must not matter."""
    body = warm_dumbbell_bytes("pert", **BASE)
    forward = [run_dumbbell_warm(body, d).mean_queue_pkts for d in DURATIONS]
    backward = [
        run_dumbbell_warm(body, d).mean_queue_pkts for d in reversed(DURATIONS)
    ]
    assert forward == list(reversed(backward))


def test_run_dumbbell_warm_rejects_foreign_bytes():
    from repro.sim.engine import Simulator
    from repro.snapshot import capture_bytes

    body = capture_bytes(Simulator(seed=1), {"not": "a dumbbell"})
    with pytest.raises(TypeError, match="warm_dumbbell_bytes"):
        run_dumbbell_warm(body, 2.0)


def test_scenario_spec_warm_start_passthrough():
    spec = ScenarioSpec(
        points=[
            ScenarioPoint(overrides={"duration": d}, tags={"duration": d})
            for d in DURATIONS[:2]
        ],
        schemes=("pert",),
        base=dict(BASE),
    )
    cold = spec.run(workers=0, cache=False)
    warm = spec.run(cache=False, warm_start=True)
    assert warm == cold
