"""A tagged run still checkpoints and resumes.

A run whose *result* reads trace records (``record_rtt_flow``: the
Section 2 case traces, a tagged flow under a fluid background) carries
its recorder inside the snapshot — the job's collector when that traces,
else a private one the shell made.  Either way a restored run's
components must keep publishing into the restored recorder, or the
resumed payload is short the records taken after the checkpoint.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import run_dumbbell
from repro.experiments.section2 import QUICK_CASES, _TRACE_KIND, case_trace_job
from repro.runner import JobSpec, ResultCache, run_jobs
from repro.snapshot import runtime

from .jobs import _DyingSlot

CRASHY = "tests.snapshot.jobs:crashy_job"
OBS_ENV = ("REPRO_OBS", "REPRO_TRACE", "REPRO_PROFILE", "REPRO_BUS")

CASE = QUICK_CASES[0]
PARAMS = dict(n_fwd=CASE.n_fwd, n_rev=CASE.n_rev,
              web_sessions=CASE.web_sessions, bandwidth=16e6, rtt=0.060,
              duration=8.0, warmup=3.0, seed=1, scheme="sack-droptail")
#: saves land at 2.5 and (mid-measure, fatal on the first attempt) 5.5
INTERVAL, SECOND_SAVE = 2.5, 5.5


def _job(tmp_path, name, crash: bool):
    """Run the case-trace job through the runner with checkpointing on,
    its first attempt dying after the second save iff *crash*; returns
    ``(result, entry meta)``."""
    marker = tmp_path / f"{name}.marker"
    if not crash:
        marker.touch()  # an existing marker disarms the crash injection
    cache = ResultCache(tmp_path / name)
    spec = JobSpec(CRASHY, dict(PARAMS, kind=_TRACE_KIND, marker=str(marker)))
    res = run_jobs([spec], workers=0, cache=cache, retries=1,
                   checkpoint=INTERVAL)[0]
    assert res.ok and res.attempts == (2 if crash else 1)
    assert res.value["resumed"] is crash
    return res, json.loads(cache.path_for(spec).read_text())["meta"]


@pytest.fixture
def obs_off(monkeypatch):
    for var in OBS_ENV:
        monkeypatch.delenv(var, raising=False)


def test_killed_tagged_job_resumes_to_the_straight_through_payload(
        tmp_path, obs_off):
    direct = case_trace_job(dict(PARAMS))
    assert direct["flow_losses"] and direct["queue_drops"]
    # records on both sides of the checkpoint, so a recorder that went
    # deaf on restore would show
    assert direct["rtt_trace"][0][0] < SECOND_SAVE < direct["rtt_trace"][-1][0]

    straight, straight_meta = _job(tmp_path, "straight", crash=False)
    resumed, resumed_meta = _job(tmp_path, "resumed", crash=True)
    assert resumed.value["resumed_at"] == SECOND_SAVE
    assert resumed.value["payload"] == straight.value["payload"] == direct
    # the private recorder rode in the snapshot but is nobody's observation
    assert set(resumed_meta) == set(straight_meta)
    assert "metrics" not in resumed_meta
    assert not list(tmp_path.rglob("*.trace.jsonl"))


def test_resumed_components_publish_into_the_restored_collector(
        tmp_path, obs_off, monkeypatch):
    """``REPRO_OBS=1``: the job's collector is metrics-only, the records
    are the private recorder's, and after a resume both still fill."""
    monkeypatch.setenv("REPRO_OBS", "1")
    straight, straight_meta = _job(tmp_path, "straight", crash=False)
    resumed, resumed_meta = _job(tmp_path, "resumed", crash=True)
    assert resumed.value["payload"] == straight.value["payload"]
    metrics = resumed_meta["metrics"]
    assert metrics == straight_meta["metrics"]
    # every part is covered, the recorded ones (tagged flow, forward
    # bottleneck) included, and the histograms kept filling after 5.5 s
    assert metrics["queue.bottleneck.fwd.drops"] > 0
    assert metrics["queue.bottleneck.rev.enqueues"] > 0
    assert metrics["flow.0.timeouts"] > 0 and metrics["flow.0.cwnd"]["count"] > 0
    assert metrics["queue.bottleneck.fwd.qlen"]["count"] > SECOND_SAVE / 0.1
    assert metrics["sim.time"] == PARAMS["duration"]
    assert not list(tmp_path.rglob("*.trace.jsonl"))


def test_traced_tagged_job_resumes_with_its_whole_trace(
        tmp_path, obs_off, monkeypatch):
    """``REPRO_TRACE=1``: the job's own collector is the recorder."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    straight, straight_meta = _job(tmp_path, "straight", crash=False)
    resumed, resumed_meta = _job(tmp_path, "resumed", crash=True)
    assert resumed.value["payload"] == straight.value["payload"]
    assert resumed_meta["metrics"] == straight_meta["metrics"]
    (a,), (b,) = (list((tmp_path / name).rglob("*.trace.jsonl"))
                  for name in ("straight", "resumed"))
    assert a.read_bytes() == b.read_bytes()


def test_killed_hybrid_tagged_run_resumes_to_the_straight_through_run(
        tmp_path, obs_off):
    """A fluid-backed run with a tagged flow, killed after its second
    checkpoint (t = 1.5, mid-measure), resumes to the uninterrupted run's
    records and result."""
    kw = dict(rtt=0.04, n_fwd=3, warmup=1.0, duration=3.0, seed=3,
              record_rtt_flow=0,
              background={"model": "pert_red", "share": 0.4, "n_flows": 8})
    path = tmp_path / "hybrid.ckpt"
    with runtime.checkpoint_scope(path, 0.5) as slot:
        runtime._ACTIVE = _DyingSlot(slot, die_after=2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_dumbbell("pert", 4e6, **kw)
    with runtime.checkpoint_scope(path, 0.5) as slot:
        resumed = run_dumbbell("pert", 4e6, **kw)
    assert slot.resumed_at == 1.5
    straight = run_dumbbell("pert", 4e6, **kw)
    for key in ("rtt_trace", "flow_losses", "queue_drops"):
        assert resumed.extras[key] == straight.extras[key]
    # records on both sides of the checkpoint
    trace = resumed.extras["rtt_trace"]
    assert trace[0][0] < slot.resumed_at < trace[-1][0]
    assert resumed.payload() == straight.payload()
    assert resumed.background_pkts > 0
