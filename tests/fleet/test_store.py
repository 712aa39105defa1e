"""The fleet's result store is the runner's cache: counters and dedupe."""

from __future__ import annotations

from repro.fleet import Fleet
from repro.runner.cache import ResultCache
from repro.runner.spec import JobSpec, content_key


def test_counters_track_traffic(tmp_path):
    store = ResultCache(tmp_path)
    spec = JobSpec("kind", {"x": 1})
    assert store.get(spec) is None
    store.put(spec, {"y": 2})
    assert store.get(spec)["payload"] == {"y": 2}
    assert store.stats == {"hits": 1, "misses": 1, "puts": 1}


def test_contains_probe_is_uncounted(tmp_path):
    store = ResultCache(tmp_path)
    spec = JobSpec("kind", {"x": 1})
    assert not store.contains(spec)
    store.put(spec, {})
    assert store.contains(spec)
    assert store.stats == {"hits": 0, "misses": 0, "puts": 1}


def test_store_interoperates_with_runner_cache(tmp_path):
    """A point cached by the runner is a fleet store hit, and vice versa."""
    cache = ResultCache(tmp_path)
    spec = JobSpec("dumbbell", {"scheme": "pert", "duration": 5.0})
    cache.put(spec, {"utilization": 0.9})
    store = Fleet(tmp_path / "fleet", store=tmp_path).store  # same directory
    assert type(store) is ResultCache
    assert store.contains(spec)
    assert store.get(spec)["payload"] == {"utilization": 0.9}
    spec2 = JobSpec("dumbbell", {"scheme": "vegas", "duration": 5.0})
    store.put(spec2, {"utilization": 1.0})
    assert cache.get(spec2)["payload"] == {"utilization": 1.0}


def test_keys_are_canonical_content_hashes(tmp_path):
    """Param-dict ordering must not change where a result lands."""
    a = JobSpec("kind", {"x": 1, "y": 2})
    b = JobSpec("kind", {"y": 2, "x": 1})
    assert a.cache_key == b.cache_key == content_key("kind", {"x": 1, "y": 2})
    store = ResultCache(tmp_path)
    store.put(a, {"v": 1})
    assert store.get(b)["payload"] == {"v": 1}
