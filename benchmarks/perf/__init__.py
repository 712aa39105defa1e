"""Hot-path microbenchmark suite — tracks the simulator's raw speed.

Three benchmarks cover the three performance-critical layers:

* ``engine.churn`` — pure event-list throughput: self-rescheduling null
  callbacks, measuring heap push/pop + dispatch with no protocol work.
* ``dumbbell.<scheme>`` — end-to-end packet-level throughput of the
  paper's dumbbell workload per scheme (events/s and bottleneck
  packets/s), the number that multiplies every figure sweep.
* ``fluid.dde`` — RK4 step rate of the Section 5 PERT/RED fluid model.
* ``fluid.dde_batch`` — the vectorized sweep integrator: a whole RTT
  grid of PERT/RED models advanced in lockstep via
  :func:`repro.fluid.model.simulate_batch`, reported as aggregate
  member-steps/s plus the speedup over the equivalent scalar loop.

The payload records which event-engine backend ran the suite (the
``engine`` key, resolved from ``REPRO_ENGINE``) and, since
``repro-bench/3``, which compiled tier served it (the ``compiled`` key:
``"cext"`` / ``"mypyc"`` / ``"cython"``, or ``null`` for pure Python —
see :mod:`repro.compiled`); numbers from different backends or tiers
are not comparable, and the perf guard skips rather than compare them.

Run ``PYTHONPATH=src python -m benchmarks.perf`` from the repo root to
regenerate ``BENCH_sim.json`` (the committed perf trajectory, diffed
PR-over-PR); ``--quick`` shrinks every workload for CI smoke runs while
keeping the JSON schema identical.

All workloads are fixed-seed: the event/step counts they report are
deterministic, so any drift in those counts flags a behavioural (not
just performance) change.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

#: bump when the JSON layout changes (CI diffs the schema)
SCHEMA = "repro-bench/3"

#: bump when the history-line layout changes incompatibly
HISTORY_SCHEMA = "repro-bench-history/1"

#: repo root (benchmarks/perf/__init__.py -> two parents up)
REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT = REPO_ROOT / "BENCH_sim.json"
#: append-only perf trajectory, one JSON line per suite run
HISTORY_FILENAME = "BENCH_history.jsonl"
DEFAULT_HISTORY = REPO_ROOT / HISTORY_FILENAME

#: schemes whose dumbbell throughput is tracked: the PERT hot path, the
#: cheapest baseline, and the router-AQM path (RED admit per packet)
DUMBBELL_SCHEMES: Tuple[str, ...] = ("pert", "sack-droptail", "sack-red-ecn")

DUMBBELL_KWARGS = dict(
    bandwidth=8e6, rtt=0.05, n_fwd=8, duration=6.0, warmup=2.0, seed=2,
)
DUMBBELL_KWARGS_QUICK = dict(
    bandwidth=4e6, rtt=0.05, n_fwd=4, duration=3.0, warmup=1.0, seed=2,
)


def _ensure_src_on_path() -> None:
    """Allow running from a repo-root checkout without PYTHONPATH=src."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(REPO_ROOT / "src"))


def bench_engine(n_events: int = 200_000, chains: int = 200,
                 repeat: int = 3) -> Dict:
    """Event-list churn: *chains* self-rescheduling null callback chains.

    Measures heap push/pop plus dispatch with no protocol logic — the
    ceiling every packet-level workload sits under.
    """
    _ensure_src_on_path()
    from repro.sim.engine import Simulator

    depth = n_events // chains

    def _once() -> Tuple[float, int]:
        sim = Simulator(seed=0)

        def tick(remaining: int) -> None:
            if remaining:
                sim.schedule_fire(0.001, tick, remaining - 1)

        for i in range(chains):
            sim.schedule_fire(i * 1e-6, tick, depth - 1)
        t0 = time.perf_counter()
        sim.run()
        return time.perf_counter() - t0, sim.events_processed

    best, events = min(_once() for _ in range(repeat))
    return {
        "params": {"n_events": n_events, "chains": chains, "repeat": repeat},
        "events": events,
        "best_seconds": best,
        "events_per_sec": events / best,
    }


def bench_dumbbell(schemes: Sequence[str] = DUMBBELL_SCHEMES,
                   repeat: int = 3, **kwargs) -> Dict[str, Dict]:
    """Per-scheme dumbbell throughput (events/s, bottleneck packets/s).

    *kwargs* override :data:`DUMBBELL_KWARGS`; the same kwargs are
    recorded in each entry so regression guards can re-run the exact
    workload.
    """
    _ensure_src_on_path()
    from repro.experiments.common import run_dumbbell

    params = dict(DUMBBELL_KWARGS)
    params.update(kwargs)
    out: Dict[str, Dict] = {}
    for scheme in schemes:
        best = float("inf")
        events = packets = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = run_dumbbell(scheme, collector=False, keep_refs=True,
                                  **params)
            elapsed = time.perf_counter() - t0
            db = result.extras["dumbbell"]
            run_events = result.events_processed
            run_packets = db.fwd.packets_transmitted + db.rev.packets_transmitted
            if events is None:
                events, packets = run_events, run_packets
            elif (events, packets) != (run_events, run_packets):
                raise AssertionError(
                    f"{scheme}: fixed-seed run not deterministic "
                    f"({events},{packets}) vs ({run_events},{run_packets})"
                )
            best = min(best, elapsed)
        out[scheme] = {
            "params": dict(params),
            "events": events,
            "packets": packets,
            "best_seconds": best,
            "events_per_sec": events / best,
            "packets_per_sec": packets / best,
        }
    return out


def bench_fluid(duration: float = 40.0, dt: float = 1e-3,
                repeat: int = 3) -> Dict:
    """RK4 step rate of the PERT/RED fluid DDE (Section 5 model)."""
    _ensure_src_on_path()
    from repro.fluid import make_fluid_model

    model = make_fluid_model("pert_red")
    n_steps = int(round(duration / dt))

    def _once() -> float:
        t0 = time.perf_counter()
        model.simulate(duration, dt=dt)
        return time.perf_counter() - t0

    best = min(_once() for _ in range(repeat))
    return {
        "params": {"duration": duration, "dt": dt, "repeat": repeat},
        "steps": n_steps,
        "best_seconds": best,
        "steps_per_sec": n_steps / best,
    }


def bench_fluid_batch(batch: int = 16, duration: float = 20.0,
                      dt: float = 1e-3, repeat: int = 3) -> Dict:
    """Vectorized RTT-sweep rate of the PERT/RED fluid model.

    Integrates *batch* models (an RTT grid spanning the Figure 13
    stability boundary) in lockstep and reports aggregate member-steps
    per second, plus the measured speedup over running the same sweep
    through the scalar integrator one model at a time (the speedup is
    timed once — it is a ratio of two long runs, not a noise-sensitive
    single number).
    """
    _ensure_src_on_path()
    from repro.fluid import make_fluid_model
    from repro.fluid.model import simulate_batch

    models = [
        make_fluid_model("pert_red", rtt=0.08 + 0.006 * i) for i in range(batch)
    ]
    n_steps = int(round(duration / dt))

    def _once() -> float:
        t0 = time.perf_counter()
        simulate_batch(models, duration, dt=dt)
        return time.perf_counter() - t0

    best = min(_once() for _ in range(repeat))
    t0 = time.perf_counter()
    for m in models:
        m.simulate(duration, dt=dt)
    scalar_seconds = time.perf_counter() - t0
    return {
        "params": {"batch": batch, "duration": duration, "dt": dt,
                   "repeat": repeat},
        "steps": n_steps * batch,
        "best_seconds": best,
        "steps_per_sec": n_steps * batch / best,
        "scalar_seconds": scalar_seconds,
        "batch_speedup": scalar_seconds / best,
    }


def run_suite(quick: bool = False, repeat: int = 3) -> Dict:
    """Run every benchmark; returns the ``BENCH_sim.json`` payload."""
    _ensure_src_on_path()
    from repro.compiled import active_tier
    from repro.sim.engine import get_engine_class

    if quick:
        engine = bench_engine(n_events=50_000, chains=100, repeat=repeat)
        dumbbell = bench_dumbbell(repeat=repeat, **DUMBBELL_KWARGS_QUICK)
        fluid = bench_fluid(duration=10.0, repeat=repeat)
        fluid_batch = bench_fluid_batch(batch=8, duration=5.0, repeat=repeat)
    else:
        engine = bench_engine(repeat=repeat)
        dumbbell = bench_dumbbell(repeat=repeat)
        fluid = bench_fluid(repeat=repeat)
        fluid_batch = bench_fluid_batch(repeat=repeat)
    benchmarks = {
        "engine.churn": engine,
        "fluid.dde": fluid,
        "fluid.dde_batch": fluid_batch,
    }
    for scheme, entry in dumbbell.items():
        benchmarks[f"dumbbell.{scheme}"] = entry
    engine_cls = get_engine_class()
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "engine": engine_cls.__name__,
        # which compiled tier (cext/mypyc/cython) served the run, or None
        # for pure Python — only meaningful when the engine is compiled
        "compiled": active_tier() if engine_cls.__name__ == "CompiledSimulator" else None,
        "benchmarks": benchmarks,
    }


def write_results(results: Dict, out: Optional[Path] = None) -> Path:
    path = Path(out) if out is not None else DEFAULT_OUT
    with path.open("w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _git_sha() -> Optional[str]:
    """Short git sha of HEAD, or None outside a repo / without git."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(REPO_ROOT), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def history_record(results: Dict) -> Dict:
    """Condense one :func:`run_suite` payload into a history line.

    Keeps only what trajectory analysis needs: when, which code
    (``git_sha``), which backend (``engine``), which compiled tier
    (``compiled``), which tier (``quick``), and the headline rate per
    benchmark (events/s, or steps/s for the fluid benchmarks).  Full
    per-benchmark detail stays in ``BENCH_sim.json``; the history is
    for run-over-run deltas.
    """
    rates = {}
    for name, entry in results.get("benchmarks", {}).items():
        rate = entry.get("events_per_sec") or entry.get("steps_per_sec")
        if rate is not None:
            rates[name] = rate
    return {
        "schema": HISTORY_SCHEMA,
        "ts": time.time(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "engine": results.get("engine"),
        "compiled": results.get("compiled"),
        "python": results.get("python"),
        "quick": bool(results.get("quick")),
        "rates": rates,
    }


def append_history(results: Dict, path: Optional[Path] = None) -> Path:
    """Append one suite run to the ``BENCH_history.jsonl`` trajectory.

    One JSON line per run, append-only — successive benchmark runs build
    the perf-over-time record.  :func:`read_history` is its only reader;
    ``repro.obs`` does not read the file.
    """
    path = Path(path) if path is not None else DEFAULT_HISTORY
    line = json.dumps(history_record(results), sort_keys=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return path


def read_history(path: Optional[Path] = None) -> list:
    """Parse the history trajectory; unparseable lines are skipped."""
    path = Path(path) if path is not None else DEFAULT_HISTORY
    entries = []
    try:
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue
                if isinstance(rec, dict) and isinstance(rec.get("rates"), dict):
                    entries.append(rec)
    except OSError:
        pass
    return entries
