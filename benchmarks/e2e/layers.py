"""The traced run: per-layer shares, exact counts and micro-timings.

``trace_workload`` runs one untraced repetition (for the digest and the
overhead ratio), then the same work with the layer instruments on, and
attributes host time and counts to the repo's own modules.  A layer
metric exists only on workloads that run the layer; the contract line
fills the others with 0 (see ``README.md``).

* ``packet.*`` — span tracer (:mod:`.tracing`), a shorter
  ``sys.setprofile`` pass for per-ACK / per-packet call counts, and
  standalone micro-timings of public functions of the layers involved;
* ``fluid.grid`` — the repetition's parts timed one by one from outside;
* ``sweep.*`` — the three outside timings T_direct / T(``workers=0``) /
  T_W plus micro-timings of ``ResultCache``, ``Journal``, ``JobQueue``
  and ``EventBus`` public methods on real payloads.

Micro-timings are calibrated like everything else: one kernel bracket
around each block.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.core.response import GentleRedCurve, PiResponse
from repro.core.srtt import EwmaRtt
from repro.fleet import JobQueue, Journal
from repro.fluid import simulate_batch
from repro.obs import Collector
from repro.obs.bus import EventBus
from repro.runner import JobSpec, ResultCache, content_key, resolve_job, run_jobs
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import QueueConfig, make_queue

from . import harness
from .calib import kernel, normalise, spread, summary
from .tracing import LAYERS, SpanTracer, StackSampler, count_calls
from .workloads import W, FluidWorkload, PacketWorkload, build

Metrics = Dict[str, Dict[str, Any]]


@dataclass
class _Trace:
    """What one traced run carries between its passes."""

    seed: int
    seconds: float
    smoke: bool
    spans_out: Optional[str]
    #: every checked repetition (for the digest rule) and calibration taken
    reps: List[Dict[str, Any]] = field(default_factory=list)
    calibs: List[float] = field(default_factory=list)
    #: report sections beside the metrics
    extra: Dict[str, Any] = field(default_factory=dict)


def _m(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _calibrated(fn: Callable[[], Any], calibs: List[float]) -> float:
    """Calibrated seconds of one call of *fn* (kernel before and after)."""
    gc.collect()
    before = kernel()
    t0 = perf_counter()
    fn()
    wall = perf_counter() - t0
    after = kernel()
    calibs += [before, after]
    return normalise(wall, before, after)


# ----------------------------------------------------------------------
# packet.*
# ----------------------------------------------------------------------
def _queue_op_us(config: QueueConfig, calibs: List[float], ops: int = 200_000) -> float:
    """Standalone enqueue+dequeue cost of one discipline, µs per operation."""
    queue = make_queue(config)
    pkts = [Packet(flow_id=i & 7, src=0, dst=1, size=1000, seq=i, ect=True)
            for i in range(64)]

    def loop():
        now = 0.0
        for i in range(ops // 2):
            queue.enqueue(pkts[i & 63], now)
            queue.dequeue(now)
            now += 1e-4

    return _calibrated(loop, calibs) / ops * 1e6


def _law_op_us(calibs: List[float], n: int = 100_000) -> float:
    """One signal update + one curve evaluation + one PI step, µs."""
    signal, curve = EwmaRtt(), GentleRedCurve()
    pi = PiResponse(k=0.5, m=2.0)

    def loop():
        for i in range(n):
            signal.update(0.06 + (i & 15) * 1e-3)
            curve.probability(signal.queuing_delay)
            pi.update(signal.queuing_delay)

    return _calibrated(loop, calibs) / n * 1e6


def _churn_events_per_s(calibs: List[float], n: int = 200_000) -> float:
    """Engine-only throughput: eight self-rescheduling null callbacks."""
    sim = Simulator(seed=1)

    def tick(_):
        sim.schedule_fire1(1e-3, tick, None)

    for i in range(8):
        sim.schedule_fire1(i * 1e-4, tick, None)
    return n / _calibrated(lambda: sim.run(max_events=n), calibs)


def _packet_micro(calibs: List[float]) -> Metrics:
    red = QueueConfig("red", capacity_pkts=400, params=dict(
        min_th=60.0, max_th=180.0, max_p=0.1, gentle=True, ecn=True, adaptive=True))
    pi = QueueConfig("pi", capacity_pkts=400, params=dict(
        q_ref=20.0, a=1.8e-5, b=1.7e-5, sample_hz=170.0, ecn=True))
    return {
        "sim.queues.droptail_op_us": _m(_queue_op_us(
            QueueConfig("droptail", capacity_pkts=400), calibs), "us"),
        "sim.queues.red_op_us": _m(_queue_op_us(red, calibs), "us"),
        "sim.queues.pi_op_us": _m(_queue_op_us(pi, calibs), "us"),
        "core.law_op_us": _m(_law_op_us(calibs), "us"),
        "sim.engine.churn_events_per_s": _m(_churn_events_per_s(calibs), "1/s"),
    }


def _packet_counts(name: str, seed: int) -> Metrics:
    """Exact per-packet / per-ACK ratios from the ``sys.setprofile`` pass."""
    small = PacketWorkload(name, seed, True, Path("."))
    results, py, cc = count_calls(small.work)
    pkts = small.check(results).units
    acks = py.get(("tcp.base", "TcpSender.receive"), 0)
    departures = sum(link.packets_transmitted for r in results
                     for link in r.extras["dumbbell"].net.links)
    tcp_calls = sum(n for (module, _fn), n in py.items() if module.startswith("tcp."))
    heap_ops = cc.get("heappush", 0) + cc.get("heappop", 0)
    return {
        "sim.engine.heap_ops_per_pkt": _m(heap_ops / pkts, "count"),
        "sim.engine.inline_advance_share": _m(
            1.0 - py.get(("sim.link", "Link._tx_done"), 0) / departures, "ratio"),
        "tcp.base.py_calls_per_ack": _m(tcp_calls / acks, "count"),
    }


def _obs_overhead(workload, calibs: List[float], pairs: int = 3) -> float:
    """Collector on vs off, interleaved, as a share of the off time."""
    on, off = [], []
    for _ in range(pairs):
        off.append(_calibrated(workload.work, calibs))
        on.append(_calibrated(
            lambda: [part() for part in workload.parts(collector=Collector())], calibs))
    return (summary(on, "s")["value"] - summary(off, "s")["value"]) \
        / summary(off, "s")["value"]


def _trace_packet(workload, t: _Trace) -> Metrics:
    untraced = harness.timed_rep(workload)
    sampler = StackSampler()
    sampled = []

    def sampled_work():  # ticks only while the program itself runs
        with sampler.running():
            return workload.work()

    start = perf_counter()
    while not sampled or (not t.smoke and perf_counter() - start < t.seconds / 2):
        sampled.append(harness.timed_rep(workload, sampled_work))
    tracer = SpanTracer()
    with tracer.installed():
        traced = harness.timed_rep(workload)
    t.reps += [untraced] + sampled + [traced]
    if t.spans_out:
        tracer.write_trees(t.spans_out)
    # root spans: what one event of each callback costs, children included
    t.extra["callbacks"] = {
        name: {"layer": layer, "events": tracer.events[name],
               "inclusive_us": seconds_in / tracer.events[name] * 1e6}
        for name, (layer, seconds_in) in sorted(tracer.roots.items())}

    shares = sampler.shares()
    stats = untraced["stats"] or []
    pkts = untraced["units"]
    events = sum(s["events"] for s in stats)
    calls = tracer.calls
    on_ack = sum(c for name, c in calls.items()
                 if name.endswith(".on_ack") and tracer.call_layer[name] == "core")
    curve_evals = sum(c for name, c in calls.items() if name.endswith("Curve.probability"))
    sent = sum(s.pkts_sent for s in tracer.senders)
    m: Metrics = {f"{layer}.self_share": _m(shares.get(layer, 0.0), "ratio")
                  for layer in LAYERS}
    m.update({
        "sim.engine.events": _m(events, "count"),
        "sim.engine.events_per_pkt": _m(events / pkts, "count"),
        "sim.link.self_us_per_pkt": _m(
            shares.get("sim.link", 0.0) * untraced["norm_s"] / pkts * 1e6, "us"),
        "sim.queues.drops": _m(sum(s["drops"] for s in stats), "count"),
        "sim.queues.marks": _m(sum(s["marks"] for s in stats), "count"),
        "sim.queues.mean_depth_pkts": _m(
            sum(s["mean_queue_pkts"] for s in stats) / len(stats), "pkts"),
        "tcp.base.acks": _m(calls["TcpSender.receive"], "count"),
        "tcp.base.rtx_per_kpkt": _m(
            1000.0 * sum(s.retransmits for s in tracer.senders) / sent, "count"),
        "tcp.base.timeouts": _m(sum(s.timeouts for s in tracer.senders), "count"),
        "core.on_ack_calls": _m(on_ack, "count"),
        "core.curve_evals_per_ack": _m(curve_evals / on_ack if on_ack else 0.0, "count"),
        "core.early_per_kack": _m(
            1000.0 * sum(s["early"] for s in stats) / on_ack if on_ack else 0.0, "count"),
        "traffic.web_objects": _m(sum(s.objects_fetched for s in tracer.sessions), "count"),
        "traffic.flows_started": _m(len(tracer.senders), "count"),
        "sim.monitors.ticks": _m(sum(
            c for name, c in tracer.events.items()
            if tracer.roots[name][0] == "sim.monitors"), "count"),
        "trace.overhead_ratio": _m(traced["wall_s"] / untraced["wall_s"], "ratio"),
        "trace.stack_samples": _m(sum(sampler.ticks.values()), "count"),
    })
    m.update(_packet_counts(workload.name, t.seed))
    m.update(_packet_micro(t.calibs))
    if workload.name == "packet.endhost":
        m["obs.collect.overhead_share"] = _m(
            _obs_overhead(workload, t.calibs, pairs=1 if t.smoke else 3), "ratio")
    return m


# ----------------------------------------------------------------------
# fluid.grid
# ----------------------------------------------------------------------
def _trace_fluid(workload: FluidWorkload, t: _Trace) -> Metrics:
    calibs = t.calibs
    rep = harness.timed_rep(workload)
    t.reps.append(rep)
    steps = round(workload.batch_t / 1e-3)
    scalar_steps = round(workload.scalar_t / 1e-3)
    t_batch = _calibrated(
        lambda: simulate_batch(workload.members, workload.batch_t, dt=1e-3), calibs)
    t_loop = _calibrated(
        lambda: [m.simulate(workload.batch_t) for m in workload.members], calibs)
    m: Metrics = {
        "fluid.dde.batch_steps_per_s": _m(workload.batch_size * steps / t_batch, "1/s"),
        "fluid.dde.batch_speedup": _m(t_loop / t_batch, "ratio"),
        "fluid.theory_err": _m(float.fromhex(rep["stats"]["theory_err"]), "ratio"),
        "trace.overhead_ratio": _m(1.0, "ratio"),  # timed from outside only
    }
    for name, model in zip(workload.scalar_names, workload.scalars):
        t_model = _calibrated(lambda: model.simulate(workload.scalar_t), calibs)
        m[f"fluid.{name}.steps_per_s"] = _m(scalar_steps / t_model, "1/s")
    return m


# ----------------------------------------------------------------------
# sweep.*
# ----------------------------------------------------------------------
def noop_job(params: dict) -> dict:
    """The cheapest possible job: what is left is the executor's own cost."""
    return {"i": params["i"]}


def _bus_emit_us(tmp: Path, calibs: List[float], n: int = 2000) -> float:
    bus = EventBus(tmp / "bus" / "events.jsonl")

    def loop():
        for i in range(n):
            bus.emit("job_cached", key=f"{i:064x}")

    try:
        return _calibrated(loop, calibs) / n * 1e6
    finally:
        bus.close()


def _direct_seconds(workload, calibs) -> float:
    """T_direct: the registered job function called in a plain loop."""
    return _calibrated(
        lambda: [resolve_job(s.kind)(dict(s.params)) for s in workload.specs], calibs)


def _trace_runner(workload, t: _Trace) -> Metrics:
    calibs = t.calibs
    specs = workload.specs
    n = len(specs)
    t.reps.append(harness.timed_rep(workload))
    t_direct = _direct_seconds(workload, calibs)
    t_inproc = _calibrated(lambda: run_jobs(
        specs, workers=0, cache=ResultCache(workload.fresh_dir()),
        progress=False, bus=False), calibs)
    retries: List[int] = []
    cache_dir = workload.fresh_dir()
    t_w = _calibrated(lambda: run_jobs(
        specs, workers=W, cache=ResultCache(cache_dir),
        progress=lambda stats: retries.append(stats.retries), bus=False), calibs)
    noops = [JobSpec("benchmarks.e2e.layers:noop_job", {"i": i}) for i in range(n)]
    spawned: List[Any] = []
    t_spawn = _calibrated(lambda: spawned.extend(run_jobs(
        noops, workers=1, cache=False, progress=False, bus=False)), calibs)
    if not all(r.ok for r in spawned):
        raise RuntimeError("no-op jobs failed: workers cannot import benchmarks.e2e")

    # cache micro-timings on real payloads, 512 distinct keys
    filled = ResultCache(cache_dir)
    payloads = [filled.get(s)["payload"] for s in specs]
    entries = [p for p in cache_dir.glob("??/*.json")
               if len(p.name) == 64 + len(".json")]
    many = [JobSpec(s.kind, dict(s.params, rep=i // n))
            for i, s in enumerate(specs * (512 // n))]
    scratch_cache = ResultCache(workload.fresh_dir())
    t_key = _calibrated(lambda: [content_key(s.kind, s.params) for s in many], calibs)
    t_put = _calibrated(lambda: [scratch_cache.put(s, payloads[i % n])
                                 for i, s in enumerate(many)], calibs)
    t_get = _calibrated(lambda: [scratch_cache.get(s) for s in many], calibs)
    return {
        "runner.executor.inproc_overhead_share": _m((t_inproc - t_direct) / t_inproc, "ratio"),
        "runner.executor.parallel_efficiency": _m(t_direct / (W * t_w), "ratio"),
        "runner.executor.spawn_ms_per_job": _m(t_spawn / n * 1e3, "ms"),
        "runner.executor.retries": _m(max(retries, default=0), "count"),
        "runner.cache.key_us": _m(t_key / len(many) * 1e6, "us"),
        "runner.cache.put_us": _m(t_put / len(many) * 1e6, "us"),
        "runner.cache.get_us": _m(t_get / len(many) * 1e6, "us"),
        "runner.cache.bytes_per_entry": _m(
            sum(p.stat().st_size for p in entries) / len(entries), "B"),
        "obs.bus.emit_us": _m(_bus_emit_us(workload.tmp, calibs), "us"),
        "trace.overhead_ratio": _m(1.0, "ratio"),  # timed from outside only
    }


def _trace_fleet(workload, t: _Trace) -> Metrics:
    calibs = t.calibs
    n = len(workload.specs)
    t.reps.append(harness.timed_rep(workload))
    t_w = t.reps[-1]["norm_s"]
    fleet_dir = workload.fresh_dir()
    workload.via_fleet(fleet_dir)
    records = len(Journal(fleet_dir).read_all())
    _payloads, receipt = workload.via_fleet(workload.fresh_dir(), store=fleet_dir / "store")
    replays = 3 if workload.smoke else 40
    t_replay_all = _calibrated(lambda: [
        workload.via_fleet(workload.fresh_dir(), store=fleet_dir / "store")
        for _ in range(replays)], calibs)
    t_direct = _direct_seconds(workload, calibs)

    journal = Journal(workload.fresh_dir())

    def appends(count=5000):
        for i in range(count):
            with journal.locked():
                journal.append("requeue", key=f"{i:064x}", reason="bench")

    t_append = _calibrated(appends, calibs)
    t_replay = _calibrated(journal.read_all, calibs)

    queue = JobQueue(workload.fresh_dir())
    cycles = 200

    def lease_done():
        for i in range(cycles):
            key = f"{i:064x}"
            queue.submit(key, "dumbbell", {"i": i})
            queue.lease("bench")
            queue.done(key, "bench")

    t_cycle = _calibrated(lease_done, calibs)
    return {
        "fleet.scheduler.parallel_efficiency": _m(t_direct / (W * t_w), "ratio"),
        "fleet.journal.records_per_job": _m(records / n, "count"),
        "fleet.journal.append_us": _m(t_append / 5000 * 1e6, "us"),
        "fleet.journal.replay_us_per_rec": _m(t_replay / 5000 * 1e6, "us"),
        "fleet.queue.lease_done_us": _m(t_cycle / cycles * 1e6, "us"),
        "fleet.store.dedupe_share": _m(receipt.deduped / n, "ratio"),
        "fleet.store.replay_points_per_s": _m(n * replays / t_replay_all, "1/s"),
        "obs.bus.emit_us": _m(_bus_emit_us(workload.tmp, calibs), "us"),
        "trace.overhead_ratio": _m(1.0, "ratio"),  # timed from outside only
    }


# ----------------------------------------------------------------------
def trace_workload(name: str, seed: int, seconds: float, smoke: bool,
                   spans_out: Optional[str] = None) -> Dict[str, Any]:
    """The traced run of one workload; returns its report."""
    t = _Trace(seed, seconds, smoke, spans_out)
    with harness.scratch() as tmp:
        # the replay workload runs the same layers as the cold runner sweep
        workload = build("sweep.runner" if name == "sweep.replay" else name,
                         seed, smoke, tmp)
        workload.check(workload.warm())
        if name.startswith("packet."):
            metrics = _trace_packet(workload, t)
        elif name == "fluid.grid":
            metrics = _trace_fluid(workload, t)
        elif name in ("sweep.runner", "sweep.replay"):
            metrics = _trace_runner(workload, t)
        else:
            metrics = _trace_fleet(workload, t)
    calibs = t.calibs + [c for r in t.reps for c in r["calibs"]]
    metrics["host.calib_s"] = summary(calibs, "s")
    metrics["host.calib_spread"] = _m(spread(calibs), "ratio")
    report = {
        "workload": name,
        "header": harness.header(seed, smoke),
        "metrics": metrics,
        "problems": sorted({p for r in t.reps for p in r["problems"]}),
        "warnings": harness.calib_report(t.reps)["warnings"],
    }
    report.update(t.extra)
    report.update(harness.judge(t.reps, harness.expected_digest(name, seed, smoke)))
    return report
