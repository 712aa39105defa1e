"""The benchmark's workloads: inputs from a seed, one repetition, its check.

A workload object is built once per run from ``(seed, smoke, tmp)`` —
that construction is what ``setup_s`` times — and then asked, any number
of times, for its :meth:`parts` (the timed work, as one or more callables
that use only public entry points of ``repro``; the harness calibrates
between them, so a long repetition is tracked more closely) followed by
:meth:`check` (untimed; turns the parts' outputs into a digest of the
simulated statistics, the number of work units, and a list of broken
invariants).  ``work()`` runs all parts in one go and ``warm()`` is the
untimed first repetition.

Sizes are fixed by the issue that introduced the benchmark; ``smoke``
shrinks every workload below a second while keeping names and schema.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from functools import partial
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.common import run_dumbbell
from repro.fleet import Fleet
from repro.fluid import equilibrium, make_fluid_model, simulate_batch, theorem1_holds
from repro.runner import ResultCache, dumbbell_spec, run_jobs

#: sweep jobs kept in flight (and never more processes than that)
W = min(len(os.sched_getaffinity(0)), 4)

#: the paper's Section 4 comparison set
SWEEP_SCHEMES = ("pert", "sack-droptail", "sack-red-ecn", "vegas")


@dataclass
class Rep:
    """What one checked repetition yields."""

    units: float
    digest: str
    problems: List[str] = field(default_factory=list)
    jobs: int = 0
    jobs_failed: int = 0
    #: exact simulated statistics, for the per-layer report
    stats: Any = None


class Workload:
    """What every workload shares: a repetition is its parts, in order."""

    unit = ""

    def parts(self) -> List[Callable[[], Any]]:
        raise NotImplementedError

    def work(self) -> List[Any]:
        return [part() for part in self.parts()]

    warm = work


def _digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# packet.*: direct run_dumbbell calls
# ----------------------------------------------------------------------
_LONG = dict(bandwidth=50e6, rtt=0.06, n_fwd=50, duration=8.0, warmup=3.0)
_MIXED = dict(
    bandwidth=20e6, n_fwd=20, rtts=[0.02 + 0.008 * i for i in range(20)],
    n_rev=10, web_sessions=30, buffer_pkts=40, duration=10.0, warmup=3.0,
)
_PACKET_VARIANTS: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {
    "packet.endhost": [("pert", _LONG)],
    # one repetition runs both router laws back to back: alternating them
    # between repetitions would make the per-repetition rate bimodal
    "packet.router": [("sack-red-ecn", _LONG), ("sack-pi-ecn", _LONG)],
    "packet.mixed": [("sack-droptail", _MIXED)],
}


def packet_stats(result) -> Dict[str, Any]:
    """Exact simulated statistics of one ``run_dumbbell(keep_refs=True)``."""
    db = result.extras["dumbbell"]
    queues = [db.fwd.qdisc, db.rev.qdisc]
    return {
        "scheme": result.scheme,
        "events": result.events_processed,
        "pkts": db.fwd.packets_transmitted + db.rev.packets_transmitted,
        "drops": sum(q.stats.drops for q in queues),
        "marks": sum(q.stats.marks for q in queues),
        "early": result.early_responses,
        "timeouts": result.timeouts,
        "utilization": float(result.utilization).hex(),
        "norm_queue": float(result.norm_queue).hex(),
        "drop_rate": float(result.drop_rate).hex(),
        "jain": float(result.jain).hex(),
        "mean_queue_pkts": result.mean_queue_pkts,
    }


def _packet_problems(result, duration: float) -> List[str]:
    """Physical invariants, checked independently of any pinned number."""
    out = []
    if result.utilization > 1.0 + 1e-12:
        out.append(f"utilization {result.utilization} > 1")
    for link in result.extras["dumbbell"].net.links:
        if len(link.qdisc) > link.qdisc.capacity:
            out.append("queue above capacity")
    if result.mean_queue_pkts > result.buffer_pkts:
        out.append("mean queue above the buffer")
    flows = result.extras["fwd_flows"] + result.extras["rev_flows"]
    for sender, _sink in flows:
        early = getattr(sender, "early_responses", 0)
        if early and early > duration / sender.min_rtt + 1:
            out.append(f"flow {sender.flow_id}: more than one early response per RTT")
        if min(sender.pkts_sent, sender.retransmits, sender.timeouts, early) < 0:
            out.append(f"flow {sender.flow_id}: negative counter")
    return out


class PacketWorkload(Workload):
    unit = "pkts"

    def __init__(self, name: str, seed: int, smoke: bool, tmp: Path):
        self.name = name
        self.seed = seed
        self.variants = []
        for scheme, kwargs in _PACKET_VARIANTS[name]:
            kwargs = dict(kwargs)
            if smoke:
                kwargs.update(duration=2.0, warmup=0.8)
            self.variants.append((scheme, kwargs))

    def parts(self, collector=False):
        return [
            partial(run_dumbbell, scheme, seed=self.seed, collector=collector,
                    keep_refs=True, **kwargs)
            for scheme, kwargs in self.variants
        ]

    def check(self, results) -> Rep:
        stats = [packet_stats(r) for r in results]
        problems = []
        for r, (_scheme, kwargs) in zip(results, self.variants):
            problems += _packet_problems(r, kwargs["duration"])
        return Rep(units=sum(s["pkts"] for s in stats), digest=_digest(stats),
                   problems=problems, stats=stats)


# ----------------------------------------------------------------------
# fluid.grid: DDE integration, batch and scalar
# ----------------------------------------------------------------------
class FluidWorkload(Workload):
    unit = "steps"
    #: the fluid models take no random input, so every seed runs the same grid
    batch_size = 16
    scalar_names = ("pert_red", "tcp_red", "pert_pi")

    def __init__(self, name: str, seed: int, smoke: bool, tmp: Path):
        self.name = name
        self.smoke = smoke
        self.batch_t, self.scalar_t = (0.5, 2.0) if smoke else (5.0, 20.0)
        self.members = [make_fluid_model("pert_red", rtt=0.08 + 0.006 * i)
                        for i in range(self.batch_size)]
        self.scalars = [make_fluid_model(n) for n in self.scalar_names]

    def parts(self):
        return [
            lambda: simulate_batch(self.members, self.batch_t, dt=1e-3),
            lambda: [m.simulate(self.scalar_t) for m in self.scalars],
        ]

    def theory_err(self, batch) -> float:
        """Max relative error of the settled W and p against eq. (9)."""
        tail = batch.y[-max(1, len(batch.t) // 5):]
        worst = 0.0
        for i, m in enumerate(self.members):
            if not theorem1_holds(m.capacity, m.n_flows, m.rtt, p_max=m.p_max,
                                  t_min=m.t_min, t_max=m.t_max, alpha=m.alpha,
                                  delta=m.delta):
                continue
            w_star, p_star = equilibrium(m.capacity, m.n_flows, m.rtt)
            w = float(tail[:, i, 0].mean())
            p = float((m.l_pert * (tail[:, i, 2] - m.t_min)).mean())
            worst = max(worst, abs(w - w_star) / w_star, abs(p - p_star) / p_star)
        return worst

    def check(self, out) -> Rep:
        batch, sols = out
        sha = hashlib.sha256(np.ascontiguousarray(batch.y[-1]).tobytes())
        for sol in sols:
            sha.update(np.ascontiguousarray(sol.y[-1]).tobytes())
        err = self.theory_err(batch)
        problems = []
        if not all(np.isfinite(s.y).all() for s in [batch] + sols):
            problems.append("non-finite fluid state")
        if not self.smoke and not err < 0.25:  # smoke runs stop before settling
            problems.append(f"theory_err {err} >= 0.25")
        steps = self.batch_size * (len(batch.t) - 1) + sum(len(s.t) - 1 for s in sols)
        stats = {"final_state": sha.hexdigest(), "theory_err": err.hex()}
        return Rep(units=steps, digest=_digest(stats), problems=problems, stats=stats)


# ----------------------------------------------------------------------
# sweep.*: spec -> runner / fleet -> cache / store -> rows
# ----------------------------------------------------------------------
def sweep_specs(seed: int, smoke: bool):
    """The sweep's points: schemes x bandwidths x seeds derived from *seed*."""
    bandwidths, n_seeds = ((4e6,), 2) if smoke else ((4e6, 8e6), 4)
    shape = dict(n_fwd=8, duration=2.0, warmup=0.5) if smoke else \
        dict(n_fwd=8, duration=6.0, warmup=2.0)
    return [
        dumbbell_spec(scheme, bandwidth=bw, seed=seed * 1000 + k, **shape)
        for bw in bandwidths for k in range(n_seeds) for scheme in SWEEP_SCHEMES
    ]


def payload_row(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The digest's view of one job payload (exact, order-free fields)."""
    row = {k: payload[k] for k in ("scheme", "events_processed",
                                   "early_responses", "timeouts")}
    for k in ("utilization", "norm_queue", "drop_rate", "mark_rate", "jain"):
        row[k] = float(payload[k]).hex()
    return row


def _row_problems(payloads: Sequence[Dict[str, Any]]) -> List[str]:
    out = []
    for i, p in enumerate(payloads):
        if p is None:
            out.append(f"point {i}: job failed")
        elif p["utilization"] > 1.0 + 1e-12 or p["norm_queue"] > 1.0 \
                or not 0.0 <= p["drop_rate"] <= 1.0 or p["events_processed"] < 0:
            out.append(f"point {i}: physical invariant broken")
    return out


class SweepWorkload(Workload):
    """Shared by the sweep workloads; subclasses pick path and phase."""

    unit = "points"

    def __init__(self, name: str, seed: int, smoke: bool, tmp: Path):
        self.name = name
        self.smoke = smoke
        self.specs = sweep_specs(seed, smoke)
        self.tmp = Path(tempfile.mkdtemp(prefix=name + "-", dir=tmp))
        self._n = 0

    def fresh_dir(self) -> Path:
        self._n += 1
        return self.tmp / f"d{self._n}"

    # the two execution paths, each returning payloads in spec order
    def via_runner(self, cache_dir: Path):
        results = run_jobs(self.specs, workers=W, cache=ResultCache(cache_dir),
                           progress=False, bus=False)
        return [r.value if r.ok else None for r in results]

    def via_fleet(self, fleet_dir: Path, store: Path = None):
        fleet = Fleet(fleet_dir, store=store)
        receipt = fleet.submit(self.specs)
        if receipt.submitted:
            fleet.drain(workers=W)
        entries = fleet.results(receipt)
        return [e["payload"] if e["state"] == "done" else None for e in entries], receipt

    def _rep(self, payloads, n_sweeps: int, extra_problems=()) -> Rep:
        rows = [payload_row(p) for p in payloads if p is not None]
        failed = sum(p is None for p in payloads)
        return Rep(units=len(self.specs) * n_sweeps, digest=_digest(rows),
                   problems=_row_problems(payloads) + list(extra_problems),
                   jobs=len(payloads), jobs_failed=failed, stats=rows)


class RunnerCold(SweepWorkload):
    def parts(self):
        def cold():
            cache_dir = self.fresh_dir()
            return cache_dir, self.via_runner(cache_dir)

        return [cold]

    def check(self, outs) -> Rep:
        cache_dir, payloads = outs[0]
        replayed = self.via_runner(cache_dir)
        shutil.rmtree(cache_dir)
        extra = [] if replayed == payloads else ["replayed rows differ from cold rows"]
        return self._rep(payloads, 1, extra)


class FleetCold(SweepWorkload):
    def parts(self):
        def cold():
            fleet_dir = self.fresh_dir()
            return fleet_dir, self.via_fleet(fleet_dir)[0]

        return [cold]

    def check(self, outs) -> Rep:
        fleet_dir, payloads = outs[0]
        replay_dir = self.fresh_dir()
        replayed, receipt = self.via_fleet(replay_dir, store=fleet_dir / "store")
        extra = [] if replayed == payloads else ["replayed rows differ from cold rows"]
        if receipt.deduped != len(self.specs):
            extra.append(f"replay deduped {receipt.deduped} of {len(self.specs)}")
        shutil.rmtree(fleet_dir)
        shutil.rmtree(replay_dir)
        return self._rep(payloads, 1, extra)


class RunnerReplay(SweepWorkload):
    #: sweeps re-requested per repetition (sized to ~0.3 s)
    replays = 200

    def warm(self):
        self.store = self.fresh_dir()
        self.cold = self.via_runner(self.store)
        return self.work()

    def parts(self):
        n = 3 if self.smoke else self.replays
        return [lambda: [self.via_runner(self.store) for _ in range(n)]]

    def check(self, outs) -> Rep:
        extra = [] if all(p == self.cold for p in outs[0]) else \
            ["replayed rows differ from cold rows"]
        return self._rep(outs[0][-1], len(outs[0]), extra)


WORKLOADS = {
    "packet.endhost": PacketWorkload,
    "packet.router": PacketWorkload,
    "packet.mixed": PacketWorkload,
    "fluid.grid": FluidWorkload,
    "sweep.runner": RunnerCold,
    "sweep.fleet": FleetCold,
    "sweep.replay": RunnerReplay,
}


def build(name: str, seed: int, smoke: bool, tmp: Path):
    """Construct workload *name*; this is the work ``setup_s`` measures."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; valid: {sorted(WORKLOADS)}")
    return WORKLOADS[name](name, seed, smoke, tmp)
