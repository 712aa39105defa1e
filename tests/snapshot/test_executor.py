"""Runner integration: periodic checkpoints, crash resume, lineage."""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import run_dumbbell
from repro.runner import JobSpec, ResultCache, run_jobs

CRASHY = "tests.snapshot.jobs:crashy_dumbbell"

#: small, fast dumbbell point shared by every test here
KW = dict(scheme="pert", bandwidth=2e6, rtt=0.04, n_fwd=2, duration=3.0,
          warmup=1.0, seed=4)


def _spec(marker, **extra):
    params = dict(KW, marker=str(marker), **extra)
    return JobSpec(CRASHY, params)


@pytest.mark.parametrize("workers", [0, 2])
def test_crashed_attempt_resumes_from_its_checkpoint(tmp_path, workers):
    cache = ResultCache(tmp_path / "cache")
    spec = _spec(tmp_path / "crash.marker", die_after=2)
    res = run_jobs(
        [spec], workers=workers, cache=cache, retries=1, checkpoint=0.5,
    )[0]

    assert res.ok
    assert res.attempts == 2  # crash + resumed retry
    assert res.value["resumed"] is True
    # interval 0.5, warmup 1.0: save #1 at t=0.5, save #2 (mid-measure,
    # fatal) at t=1.5 — the retry picks up from there
    assert res.value["resumed_at"] == 1.5
    # on success the checkpoint file is deleted
    assert not cache.checkpoint_path_for(spec).exists()

    # and the resumed run's metrics equal an uninterrupted in-process run
    straight = run_dumbbell(**KW)
    assert res.value["events_processed"] == straight.events_processed
    assert res.value["mean_queue_pkts"] == straight.mean_queue_pkts
    assert res.value["utilization"] == straight.utilization
    assert res.value["jain"] == straight.jain


def test_manifest_records_checkpoint_lineage(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = _spec(tmp_path / "lineage.marker", die_after=2)
    res = run_jobs([spec], workers=0, cache=cache, retries=1, checkpoint=0.5)[0]
    assert res.ok

    meta = json.loads(cache.path_for(spec).read_text())["meta"]
    lineage = meta["checkpoint"]
    assert lineage["resumed"] is True
    assert lineage["resumed_at"] == 1.5
    assert lineage["resumed_from"]
    assert lineage["interval"] == 0.5
    assert lineage["saves"] > 0


def test_checkpointing_is_silently_off_without_a_cache(tmp_path):
    """No cache => no checkpoint path => the job never sees a slot."""
    res = run_jobs(
        [_spec(tmp_path / "nocache.marker")],
        workers=0, cache=False, retries=1, checkpoint=0.5,
    )[0]
    assert res.ok
    assert res.attempts == 1  # the job only crashes when a slot exists
    assert res.value["resumed"] is False


def test_unused_slot_leaves_no_lineage_or_file(tmp_path):
    """Checkpointing enabled but the job finishes before the first save."""
    cache = ResultCache(tmp_path / "cache")
    # interval longer than the whole run: the slot exists but never saves
    spec = _spec(tmp_path / "clean.marker")
    res = run_jobs([spec], workers=0, cache=cache, retries=0, checkpoint=10.0)[0]
    assert res.ok
    assert res.value["resumed"] is False
    assert not cache.checkpoint_path_for(spec).exists()
    meta = json.loads(cache.path_for(spec).read_text())["meta"]
    assert "checkpoint" not in meta  # unused slots leave no record


def test_env_var_enables_checkpointing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHECKPOINT", "0.5")
    cache = ResultCache(tmp_path / "cache")
    spec = _spec(tmp_path / "env.marker", die_after=2)
    res = run_jobs([spec], workers=0, cache=cache, retries=1)[0]
    assert res.ok
    assert res.value["resumed"] is True


def _straight_and_resumed(tmp_path, workers, **extra):
    """One crashy job run twice at checkpoint interval 0.5: straight
    through (its marker pre-armed, so it never dies) and killed after its
    second save.  Returns ``(straight, resumed)`` as ``(result, entry
    meta)`` pairs."""
    out = []
    for name, crash in (("straight", False), ("resumed", True)):
        marker = tmp_path / f"{name}.marker"
        if not crash:
            marker.touch()
        cache = ResultCache(tmp_path / name)
        spec = _spec(marker, die_after=2, **extra)
        res = run_jobs([spec], workers=workers, cache=cache, retries=1,
                       checkpoint=0.5)[0]
        assert res.ok and res.attempts == (2 if crash else 1)
        assert res.value["resumed"] is crash
        out.append((res, json.loads(cache.path_for(spec).read_text())["meta"]))
    (straight, _), (resumed, _) = out
    assert resumed.value["resumed_at"] == 1.5
    assert ({k: v for k, v in resumed.value.items() if not k.startswith("resumed")}
            == {k: v for k, v in straight.value.items() if not k.startswith("resumed")})
    return out


def test_killed_hybrid_job_resumes_to_the_straight_through_payload(tmp_path):
    """The fluid background source rides in the checkpoint."""
    bg = {"model": "pert_red", "share": 0.4, "n_flows": 8}
    _, (resumed, _) = _straight_and_resumed(tmp_path, 0, background=bg)
    assert resumed.value["background_pkts"] > 0


def test_profiled_job_on_workers_resumes_to_the_straight_through_payload(
        tmp_path, monkeypatch):
    """Under ``REPRO_PROFILE`` a save detaches the job's profiler and a
    resume attaches the retry's: the payload is unchanged and the resumed
    attempt's cache entry still carries a profile."""
    monkeypatch.setenv("REPRO_PROFILE", "1")
    (_, straight), (_, resumed) = _straight_and_resumed(tmp_path, 2)
    assert straight["profile"] and resumed["profile"]
    assert resumed["checkpoint"]["resumed"] is True
