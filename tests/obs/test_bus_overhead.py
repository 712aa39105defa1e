"""Guard: an enabled telemetry bus must cost <5% on the dumbbell path.

Counterpart of ``test_overhead.py`` (which bounds the cost of *disabled*
instrumentation): here the bus is fully ON — job scope, lifecycle
events, and the heartbeat thread sampling the live simulator — and the
same fixed-seed dumbbell must stay within 5% of the silent run.  The
two runs must also produce identical results: the bus is observational
by contract, so any result drift is a correctness bug that fails before
the timing comparison.
"""

import time

import pytest

from repro.experiments.common import run_dumbbell
from repro.obs import bus as obs_bus
from repro.obs.runtime import observe_job

_KWARGS = dict(
    bandwidth=8e6, duration=4.0, warmup=1.5, n_fwd=4, seed=5,
)
_MAX_RATIO = 1.05
_REPEATS = 3
_ATTEMPTS = 3


def _bus_run(bus_path):
    with obs_bus.bus_scope(bus_path, job="overhead") as bus, observe_job(), \
            obs_bus.heartbeat_loop(bus, interval=0.1):
        obs_bus.emit("job_started", kind="dumbbell", scheme="pert",
                     seed=5, attempt=1)
        result = run_dumbbell("pert", collector=False, **_KWARGS)
        obs_bus.emit("job_finished", wall_time=0.0,
                     events=result.events_processed, attempts=1)
    return result


def _timed_runs(bus_path):
    """Best-of-N wall time (and the result) without and with the bus.

    The two kinds alternate (silent, bus, silent, bus, ...), so load from
    a neighbouring process falls on both sides alike rather than on
    whichever ran while it lasted.
    """
    base_t = bus_t = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        base_r = run_dumbbell("pert", collector=False, **_KWARGS)
        t1 = time.perf_counter()
        bus_r = _bus_run(bus_path)
        t2 = time.perf_counter()
        base_t, bus_t = min(base_t, t1 - t0), min(bus_t, t2 - t1)
    return base_t, base_r, bus_t, bus_r


def test_enabled_bus_overhead_under_5_percent(tmp_path):
    ratio = None
    for attempt in range(_ATTEMPTS):
        bus_path = tmp_path / f"events-{attempt}.jsonl"
        base_t, base_r, bus_t, bus_r = _timed_runs(bus_path)
        # Correctness before timing: the bus must be purely observational.
        assert bus_r.events_processed == base_r.events_processed, (
            "bus-on run diverged from the silent run — the bus mutated "
            "simulation state"
        )
        # The aggressive 0.1s interval must actually have produced beats.
        beats = [e for e in obs_bus.read_events(bus_path)
                 if e["type"] == "heartbeat"]
        assert beats, "heartbeat thread emitted nothing"
        assert beats[-1]["sim_now"] is not None
        ratio = bus_t / base_t
        if ratio <= _MAX_RATIO:
            return
    pytest.fail(
        f"enabled bus costs {ratio:.3f}x the silent baseline "
        f"(limit {_MAX_RATIO}x)"
    )
