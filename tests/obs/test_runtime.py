"""Job-scoped observation context: flags, phases, activation."""

import pytest

from repro.obs import runtime
from repro.obs.runtime import (
    JobObservation,
    ObsFlags,
    observe_job,
    resolve_obs_flags,
)


def test_flags_default_off():
    flags = resolve_obs_flags(env={})
    assert flags == ObsFlags()
    assert not flags.collect and not flags.trace and not flags.profile


def test_flags_from_env():
    flags = resolve_obs_flags(env={
        "REPRO_OBS": "1", "REPRO_PROFILE": "yes", "REPRO_OBS_INTERVAL": "0.25",
    })
    assert flags.collect and flags.profile and not flags.trace
    assert flags.sample_interval == 0.25


def test_trace_implies_collect():
    flags = resolve_obs_flags(env={"REPRO_TRACE": "on"})
    assert flags.trace and flags.collect


def test_idle_accessors_return_none():
    assert runtime.active() is None
    assert runtime.active_collector() is None
    assert runtime.active_profiler() is None
    with runtime.phase("noop"):  # no active observation: plain no-op
        pass


def test_observe_job_activates_and_restores():
    with observe_job(ObsFlags(collect=True)) as obs:
        assert runtime.active() is obs
        assert runtime.active_collector() is obs.collector
        assert obs.collector is not None
        assert obs.profiler is None
        with runtime.phase("setup"):
            pass
    assert runtime.active() is None
    assert "setup" in obs.phases


def test_observation_without_flags_is_phases_only():
    obs = JobObservation(ObsFlags())
    assert obs.collector is None and obs.profiler is None
    obs.add_phase("measure", 0.5)
    obs.add_phase("measure", 0.25)
    meta = obs.finish()
    assert meta["phases"]["measure"] == pytest.approx(0.75)
    assert meta["wall_time"] >= 0.0
    assert "metrics" not in meta and "profile" not in meta


def test_finish_includes_metrics_and_trace_when_enabled():
    with observe_job(ObsFlags(collect=True, trace=True)) as obs:
        obs.collector.registry.gauge("x").set(1)
    meta = obs.finish()
    assert meta["metrics"]["x"] == 1
    assert meta["trace_records"] == []
    assert isinstance(meta.get("peak_rss_kb"), int)


def test_observe_job_nests():
    with observe_job(ObsFlags()) as outer:
        with observe_job(ObsFlags()) as inner:
            assert runtime.active() is inner
        assert runtime.active() is outer
    assert runtime.active() is None
