"""The cache-hit path's costs, counted: what a sweep served from the
cache or a fleet's store reads, and that damaged entries still miss.

docs/PERFORMANCE.md states these counts; these tests are their guard.
"""

import builtins
import json
import os

import pytest

from repro.runner import JobSpec, ResultCache, run_jobs

ECHO = "tests.runner.jobs:echo"


def _specs(n):
    return [JobSpec(ECHO, {"value": i}) for i in range(n)]


@pytest.fixture
def io_counter(monkeypatch):
    """``under(root)`` resets and returns the counts from then on: the
    ``.json`` files opened below *root*, and the JSON parses (anywhere)
    that yielded a cache entry."""
    counts = {"opened": [], "parses": 0, "root": None}

    def opened(path):
        path = os.fspath(path)
        if (counts["root"] is not None and path.endswith(".json")
                and path.startswith(counts["root"])):
            counts["opened"].append(path)

    real_open, real_os_open = builtins.open, os.open
    real_loads = json.loads

    def counting_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        opened(path)
        return fh

    def counting_os_open(path, *args, **kwargs):
        fd = real_os_open(path, *args, **kwargs)
        opened(path)
        return fd

    def parsed(value):
        if isinstance(value, dict) and "payload" in value and "key" in value:
            counts["parses"] += 1
        return value

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(os, "open", counting_os_open)
    # json.load parses through the module's loads too
    monkeypatch.setattr(json, "loads", lambda *a, **k: parsed(real_loads(*a, **k)))

    def under(root):
        counts.update(opened=[], parses=0, root=os.fspath(root))
        return counts

    return under


def test_an_all_hit_sweep_reads_each_entry_once(tmp_path, monkeypatch,
                                                io_counter):
    """N hits: N entry files opened, N parses, no worker process."""
    from repro.runner import executor

    n = 8
    specs = _specs(n)
    cache = ResultCache(tmp_path)
    run_jobs(specs, workers=0, cache=cache, bus=False)
    monkeypatch.setattr(executor, "_mp_context", lambda: pytest.fail("forked"))
    counts = io_counter(tmp_path)
    again = run_jobs(specs, workers=2, cache=cache, bus=False)
    assert all(r.ok and r.cached for r in again)
    assert [r.value for r in again] == [{"value": i} for i in range(n)]
    assert sorted(counts["opened"]) == sorted(str(cache.path_for(s)) for s in specs)
    assert counts["parses"] == n


def test_an_all_fresh_fleet_sweep_reads_no_entry_back(tmp_path, io_counter):
    """The drain committed every entry and holds its payload: run_jobs
    reads back only keys it did not settle, here none."""
    from repro.fleet import Fleet

    n = 6
    fleet = Fleet(tmp_path / "fleet")
    counts = io_counter(fleet.store.root)
    results = run_jobs(_specs(n), workers=0, fleet=fleet)
    assert [r.value for r in results] == [{"value": i} for i in range(n)]
    assert not any(r.cached for r in results)
    assert counts["parses"] == 0 and counts["opened"] == []


def _garbage(path, entry):
    path.write_bytes(b"\x00garbage not json")


def _wrong_key(path, entry):
    path.write_text(json.dumps(dict(entry, key="0" * 64)))


def _not_a_dict(path, entry):
    path.write_text(json.dumps([entry]))


def _no_payload(path, entry):
    path.write_text(json.dumps({k: v for k, v in entry.items() if k != "payload"}))


@pytest.mark.parametrize("damage", [_garbage, _wrong_key, _not_a_dict, _no_payload])
def test_a_damaged_entry_misses_is_removed_and_recomputed(tmp_path, damage):
    specs = _specs(3)
    cache = ResultCache(tmp_path)
    run_jobs(specs, workers=0, cache=cache, bus=False)
    path = cache.path_for(specs[1])
    entry = json.loads(path.read_bytes())

    damage(path, entry)
    assert cache.get(specs[1]) is None
    assert not path.exists()  # removed, so it is rebuilt

    damage(path, entry)
    again = run_jobs(specs, workers=0, cache=cache, bus=False)
    assert [r.cached for r in again] == [True, False, True]
    assert [r.value for r in again] == [{"value": i} for i in range(3)]
    assert json.loads(path.read_bytes())["payload"] == {"value": 1}


@pytest.mark.parametrize("size", [0, (1 << 16) - 200, 1 << 16, 3 << 16])
def test_an_entry_of_any_size_reads_back_whole(tmp_path, size):
    """The read takes 64 KiB first and goes on to EOF only past it."""
    cache = ResultCache(tmp_path)
    spec = JobSpec(ECHO, {"value": size})
    cache.put(spec, {"blob": "x" * size, "tail": "é"})
    entry = cache.get(spec)
    assert entry["payload"] == {"blob": "x" * size, "tail": "é"}
    assert cache.stats["hits"] == 1
