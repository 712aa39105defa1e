"""Warm-started sweeps: one warm-up per scheme, cold-identical rows."""

from __future__ import annotations

import pytest

from repro.experiments.common import run_dumbbell_warm, warm_dumbbell_bytes
from repro.experiments.scenarios import ScenarioPoint, ScenarioSpec
from repro.experiments.sweep import sweep_dumbbell
from repro.runner import ResultCache, dumbbell_spec

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


def test_warm_entries_fill_the_cold_cache(tmp_path):
    """Warm-started results land in the same cache entries cold runs use."""
    cache = ResultCache(tmp_path)
    warm = sweep_dumbbell(POINTS, SCHEMES, cache=cache, warm_start=True, **BASE)

    for point in POINTS:
        for scheme in SCHEMES:
            entry = cache.get(dumbbell_spec(scheme, **dict(BASE, **point)))
            assert entry is not None
            assert entry["meta"]["warm_start"] is True
            assert entry["meta"]["attempts"] == 1

    # a later cold sweep is served entirely from those entries
    cold = sweep_dumbbell(POINTS, SCHEMES, cache=cache, workers=0, **BASE)
    assert cold == warm


def test_warm_sweep_reads_cold_cache_without_warming(tmp_path, monkeypatch):
    """Fully cached points never warm up: the warm path is pure cache reads."""
    cache = ResultCache(tmp_path)
    cold = sweep_dumbbell(POINTS, SCHEMES, cache=cache, workers=0, **BASE)

    import repro.experiments.sweep as sweep_mod

    def explode(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("warm-up ran despite a fully warm cache")

    monkeypatch.setattr(sweep_mod, "warm_dumbbell_bytes", explode)
    warm = sweep_dumbbell(POINTS, SCHEMES, cache=cache, warm_start=True, **BASE)
    assert warm == cold


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
