"""Every packet scenario runs in the one shell of ``experiments.common``.

The parking lot, the staircase and the CBR squeeze used to construct
their own simulators; what the shell gives a scenario — checkpoint
resume, observability, caching, fan-out, a non-zero event count — is
checked here for each of them.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import fig11_multibottleneck as fig11
from repro.experiments import fig12_dynamics as fig12
from repro.obs.bus import BUS_FILENAME, read_events
from repro.obs.trace import read_trace
from repro.runner import JobSpec, ResultCache, registered_kinds, resolve_job, run_jobs
from repro.snapshot import FORMAT_VERSION
from repro.snapshot.format import read_header

CRASHY = "tests.snapshot.jobs:crashy_job"

#: name -> (job kind, small params, checkpoint interval, when its second
#: save lands (mid-run; a phase end itself is never saved), the queues a
#: collector observes, the number of senders)
SCENARIOS = {
    "parking_lot": (
        fig11._KIND,
        dict(scheme="pert", n_routers=3, cloud_size=2, link_bw=8e6,
             duration=8.0, warmup=4.0),
        2.5, 6.5, ("R1-R2", "R2-R3"), 6),
    "staircase": (
        fig12._KIND,
        dict(scheme="pert", n_cohorts=2, cohort_size=2, epoch=3.0,
             bandwidth=6e6),
        2.5, 5.0, ("bottleneck.fwd", "bottleneck.rev"), 4),
    "cbr": (
        "repro.experiments.fig12b_cbr_dynamics:cbr_job",
        dict(scheme="pert", bandwidth=6e6, n_flows=3, t_on=2.0, t_off=4.0,
             duration=6.0),
        1.5, 3.0, ("bottleneck.fwd", "bottleneck.rev"), 3),
}
HOSTED = ("parking_lot", "staircase", "cbr")

OBS_ENV = ("REPRO_OBS", "REPRO_TRACE", "REPRO_PROFILE", "REPRO_BUS")


def test_the_registry_holds_the_dumbbell_only():
    assert registered_kinds() == ["dumbbell"]
    import repro.runner

    assert not hasattr(repro.runner, "parking_lot_spec")


# ----------------------------------------------------------------------
# (a) checkpoint: kill mid-run, resume, same payload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", HOSTED)
def test_killed_job_resumes_to_the_straight_through_payload(name, tmp_path):
    kind, params, interval, second_save, _, _ = SCENARIOS[name]
    if name == "staircase":
        # killed before the last cohort leaves: the departure event (once
        # a closure) is on the heap when the run is pickled
        assert second_save < (2 * params["n_cohorts"] - 2) * params["epoch"]
    straight = resolve_job(kind)(dict(params))
    assert straight["events_processed"] > 0

    cache = ResultCache(tmp_path / "cache")
    spec = JobSpec(CRASHY, dict(params, kind=kind,
                                marker=str(tmp_path / "crash.marker")))
    res = run_jobs([spec], workers=0, cache=cache, retries=1,
                   checkpoint=interval)[0]
    assert res.ok and res.attempts == 2  # crash + resumed retry
    assert res.value["resumed"] is True
    assert res.value["resumed_at"] == second_save
    assert res.value["payload"] == straight
    assert not cache.checkpoint_path_for(spec).exists()


def test_a_parent_written_checkpoint_is_discarded_and_the_job_runs_cold(tmp_path):
    """Format 7 pickled background sources with two attributes that are
    gone (the macro-packet factor and the offered-packet counter); any
    format-7 header is refused, the file deleted and the job starts over
    — nothing is half-restored."""
    kind, params, interval, _, _, _ = SCENARIOS["parking_lot"]
    cache = ResultCache(tmp_path / "cache")
    spec = JobSpec(CRASHY, dict(params, kind=kind,
                                marker=str(tmp_path / "crash.marker")))
    # leave the checkpoint a killed attempt would, then age its header
    assert not run_jobs([spec], workers=0, cache=cache, retries=0,
                        checkpoint=interval)[0].ok
    path = cache.checkpoint_path_for(spec)
    assert read_header(path)["format"] == FORMAT_VERSION == 8
    magic, header, body = path.read_bytes().split(b"\n", 2)
    path.write_bytes(b"\n".join(
        (magic, header.replace(b'"format": 8', b'"format": 7'), body)))

    res = run_jobs([spec], workers=0, cache=cache, retries=0,
                   checkpoint=interval)[0]
    assert res.ok and res.value["resumed"] is False
    assert res.value["payload"] == resolve_job(kind)(dict(params))


# ----------------------------------------------------------------------
# (b) observability: passive, and no longer empty
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SCENARIOS)
def test_obs_flags_are_passive_and_fill_the_manifest(name, tmp_path, monkeypatch):
    kind, params, _, _, queues, n_senders = SCENARIOS[name]
    spec = JobSpec(kind, params)
    for var in OBS_ENV:
        monkeypatch.delenv(var, raising=False)
    off = run_jobs([spec], workers=0, cache=ResultCache(tmp_path / "off"))[0]
    for var in OBS_ENV:
        monkeypatch.setenv(var, "1")
    cache = ResultCache(tmp_path / "on")
    on = run_jobs([spec], workers=0, cache=cache)[0]
    assert on.ok and on.value == off.value

    meta = json.loads(cache.path_for(spec).read_text())["meta"]
    metrics = meta["metrics"]
    assert {k.split(".enqueues")[0] for k in metrics if k.endswith(".enqueues")} \
        == {f"queue.{label}" for label in queues}
    assert len([k for k in metrics if k.startswith("flow.")
                and k.endswith(".timeouts")]) == n_senders
    assert meta["phases"]["setup"] > 0 and meta["phases"]["measure"] > 0
    assert meta["profile"]["events"] > 0
    assert meta["events"] == on.value["events_processed"] > 0
    assert read_trace(cache.trace_path_for(spec))

    events = read_events(cache.root / BUS_FILENAME)
    beats = [e for e in events if e["type"] == "heartbeat"]
    assert beats and all(b["sim_now"] is not None for b in beats)
    finished = [e for e in events if e["type"] == "job_finished"]
    assert [e["events"] for e in finished] == [on.value["events_processed"]]


# ----------------------------------------------------------------------
# (c) cache and fan-out through the figures' own run()
# ----------------------------------------------------------------------
def _settled(cache_dir):
    """(fresh, cached) job counts journaled on the bus next to the cache."""
    events = read_events(cache_dir / BUS_FILENAME)
    return (len([e for e in events if e["type"] == "job_finished"]),
            len([e for e in events if e["type"] == "job_cached"]))


@pytest.mark.parametrize("mod", [fig11, fig12], ids=["fig11", "fig12"])
def test_a_repeat_figure_run_is_all_hits_and_fan_out_changes_nothing(
        mod, tmp_path, monkeypatch):
    n_jobs = len(mod.QUICK.get("schemes", fig11.SECTION4_SCHEMES))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BUS", "1")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    first = mod.run(**mod.QUICK)
    assert _settled(tmp_path) == (n_jobs, 0)
    again = mod.run(**mod.QUICK)
    assert again == first
    assert _settled(tmp_path) == (n_jobs, n_jobs)

    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert mod.run(**mod.QUICK) == first
