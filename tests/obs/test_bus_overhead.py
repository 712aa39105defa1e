"""Guard: an enabled telemetry bus must cost <5% on the dumbbell path.

Counterpart of ``test_overhead.py`` (which bounds the cost of *disabled*
instrumentation): here the bus is fully ON — job scope, lifecycle
events, and the heartbeat thread sampling the live simulator — and the
same fixed-seed dumbbell must stay within 5% of the silent run.  The
two runs must also produce identical results: the bus is observational
by contract, so any result drift is a correctness bug that fails before
the timing comparison.

The clock is the process's CPU time (``time.process_time``: every
thread, the heartbeat's included), not wall-clock: a CPU-bound
neighbour stretches the wall time of whichever run it overlaps, but not
the CPU time the run itself spends.  Even so one ~0.1 s run's CPU time
scatters by about ±10 % on a shared 2-CPU box, so the gate is the
median of several paired ratios, not one ratio of two minima.
"""

import statistics
import time

import pytest

from repro.experiments.common import run_dumbbell
from repro.obs import bus as obs_bus
from repro.obs.runtime import observe_job

_KWARGS = dict(
    bandwidth=8e6, duration=4.0, warmup=1.5, n_fwd=4, seed=5,
)
_MAX_RATIO = 1.05
_PAIRS = 9
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
    """Median CPU-time ratio of a bus run to the silent run before it,
    and one result of each.

    The two kinds alternate (silent, bus, silent, bus, ...) and each
    ratio pairs neighbours in time, so drift over the test falls on both
    halves of a pair alike; the median drops the pairs a burst hit.
    """
    ratios = []
    for _ in range(_PAIRS):
        t0 = time.process_time()
        base_r = run_dumbbell("pert", collector=False, **_KWARGS)
        t1 = time.process_time()
        bus_r = _bus_run(bus_path)
        t2 = time.process_time()
        ratios.append((t2 - t1) / (t1 - t0))
    return statistics.median(ratios), base_r, bus_r


def test_enabled_bus_overhead_under_5_percent(tmp_path):
    ratio = None
    for attempt in range(_ATTEMPTS):
        bus_path = tmp_path / f"events-{attempt}.jsonl"
        ratio, base_r, bus_r = _timed_runs(bus_path)
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
        if ratio <= _MAX_RATIO:
            return
    pytest.fail(
        f"enabled bus costs {ratio:.3f}x the silent baseline "
        f"(limit {_MAX_RATIO}x)"
    )
