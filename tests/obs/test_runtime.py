"""Job-scoped observation context: flags, phases, activation, and the
dispatch seam an outside instrument attaches through."""

import pytest

from repro.experiments.common import run_dumbbell
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
    assert not flags.collect and not flags.trace


def test_flags_from_env():
    flags = resolve_obs_flags(env={
        "REPRO_OBS": "1", "REPRO_OBS_INTERVAL": "0.25",
    })
    assert flags.collect and not flags.trace
    assert flags.sample_interval == 0.25


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-0.5", "abc"])
def test_a_bad_interval_names_its_knob(raw):
    with pytest.raises(ValueError, match="REPRO_OBS_INTERVAL"):
        resolve_obs_flags(env={"REPRO_OBS": "1", "REPRO_OBS_INTERVAL": raw})


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
    assert "metrics" not in meta


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


class _CountingDispatcher:
    """The seam's whole contract: run each callback, once."""

    def __init__(self):
        self.calls = 0

    def dispatch(self, fn, args):
        self.calls += 1
        fn(*args)


def test_an_installed_dispatcher_sees_every_event_and_changes_nothing():
    """What ``benchmarks/e2e``'s tracer relies on: a dispatcher set as
    the observation's ``profiler`` is copied onto the job's simulator,
    runs every event callback, and leaves the result bit-identical."""
    kwargs = dict(bandwidth=4e6, n_fwd=3, duration=4.0, warmup=1.5, seed=3)
    plain = run_dumbbell("pert", **kwargs)
    counter = _CountingDispatcher()
    with observe_job(ObsFlags()) as obs:
        obs.profiler = counter
        dispatched = run_dumbbell("pert", **kwargs)
    assert counter.calls == dispatched.events_processed > 0
    assert dispatched == plain
