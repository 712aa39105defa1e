"""Guard: disabled instrumentation must cost <5% on the hot path.

The baseline monkeypatches the per-packet hook-bearing methods
(``QueueDiscipline.enqueue``/``dequeue``, ``Link.send``/``_tx_done``) with
copies stripped of their ``obs`` hook sites and otherwise identical line
for line (a baseline written any slower makes the guard pass for the
wrong reason), then times the same fixed-seed dumbbell both ways.  The
stripped queue methods are also what a queue built in the baseline
compares its class against, so its idle-hop pass-through stays on: a
class-level wrapper would switch it off, in the baseline only.  The two
runs must also produce *identical* results — if the stripped copies ever
drift from the real methods, the equality assertion fails before the
timing comparison can mislead anyone.
"""

import time

import pytest

from repro.experiments.common import run_dumbbell
from repro.sim.link import Link
from repro.sim.queues import DropTailQueue, base
from repro.sim.queues.base import QueueDiscipline

_KWARGS = dict(
    bandwidth=8e6, duration=4.0, warmup=1.5, n_fwd=4, seed=5,
)
_MAX_RATIO = 1.05
_REPEATS = 7
_ATTEMPTS = 3


# ---- stripped copies of the hook-bearing hot-path methods ------------
def _plain_enqueue(self, pkt, now):
    stats = self.stats
    buf = self._buf
    if self._plain_admit:
        if len(buf) >= self.capacity:
            stats.drops += 1
            stats.forced_drops += 1
            return False
        buf.append(pkt)
        self._bytes += pkt.size
        stats.enqueues += 1
        stats.bytes_in += pkt.size
        return True
    verdict = self.admit(pkt, now)
    if verdict == "enqueue":
        pass
    elif verdict == "mark":
        pkt.ce = True
        stats.marks += 1
    elif verdict == "drop":
        stats.drops += 1
        if self.is_full_for(pkt):
            stats.forced_drops += 1
        else:
            stats.early_drops += 1
        return False
    else:
        raise ValueError(f"bad admit() verdict {verdict!r}")
    self._buf.append(pkt)
    self._bytes += pkt.size
    stats.enqueues += 1
    stats.bytes_in += pkt.size
    return True


def _plain_dequeue(self, now):
    buf = self._buf
    if not buf:
        return None
    pkt = buf.popleft()
    self._bytes -= pkt.size
    return pkt


def _plain_send(self, pkt):
    # Link.send minus the `qdisc.obs` test, line for line
    sim = self.sim
    qdisc = self.qdisc
    if self._tx is not None:
        qdisc.enqueue(pkt, sim.now)
        return
    if qdisc._plain_admit:
        stats = qdisc.stats
        size = pkt.size
        stats.enqueues += 1
        stats.bytes_in += size
    else:
        now = sim.now
        if not qdisc.enqueue(pkt, now):
            return
        pkt = qdisc.dequeue(now)
        size = pkt.size
    self._tx = pkt
    tx_time = self._ser_time.get(size)
    if tx_time is None:
        tx_time = size * 8.0 / self.bandwidth
        self._ser_time[size] = tx_time
    sim.schedule_fire1(tx_time, self._on_tx_done, pkt)


def _plain_tx_done(self, pkt):
    # Link._tx_done minus the `obs` test, line for line
    sim = self.sim
    self._tx = None
    sim.schedule_fire1(self.delay, self._deliver, pkt)
    qdisc = self.qdisc
    if not qdisc._buf:
        return
    self._tx = pkt = qdisc.dequeue(sim.now)
    size = pkt.size
    tx_time = self._ser_time.get(size)
    if tx_time is None:
        tx_time = size * 8.0 / self.bandwidth
        self._ser_time[size] = tx_time
    sim.schedule_fire1(tx_time, self._on_tx_done, pkt)


# Links bind `_tx_done` per instance and queues derive `_plain_admit` at
# construction — after the patch below is in place.  The last entry makes
# the stripped queue methods count as the plain FIFO's own.
_PATCHES = [
    (QueueDiscipline, "enqueue", _plain_enqueue),
    (QueueDiscipline, "dequeue", _plain_dequeue),
    (Link, "send", _plain_send),
    (Link, "_tx_done", _plain_tx_done),
    (base, "_PLAIN_OPS",
     (QueueDiscipline.admit, _plain_enqueue, _plain_dequeue)),
]


def test_the_baseline_keeps_the_idle_hop_pass_through(monkeypatch):
    """Queue methods wrapped on the class switch the pass-through off; the
    baseline's queues must still take it, as the real run's do."""
    for owner, name, value in _PATCHES[:-1]:
        monkeypatch.setattr(owner, name, value)
    assert not DropTailQueue(10)._plain_admit
    owner, name, value = _PATCHES[-1]
    monkeypatch.setattr(owner, name, value)
    assert DropTailQueue(10)._plain_admit


def _one_run(stripped: bool):
    """Wall time and result of one run of one configuration."""
    saved = [(cls, name, getattr(cls, name)) for cls, name, _ in _PATCHES]
    if stripped:
        for cls, name, fn in _PATCHES:
            setattr(cls, name, fn)
    try:
        t0 = time.perf_counter()
        result = run_dumbbell("pert", collector=False, **_KWARGS)
        return time.perf_counter() - t0, result
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


def _timed_pair():
    """Best-of-N wall time and result per configuration.

    The two configurations alternate run by run, so a slow spell of the
    host falls on both; with the baseline no longer slower by
    construction the true ratio sits near 1.02, and block-wise timing
    put one attempt in three above the limit on noise alone.
    """
    best = {True: float("inf"), False: float("inf")}
    results = {}
    for _ in range(_REPEATS):
        for stripped in (True, False):
            elapsed, results[stripped] = _one_run(stripped)
            best[stripped] = min(best[stripped], elapsed)
    return best[True], results[True], best[False], results[False]


def test_disabled_instrumentation_overhead_under_5_percent():
    ratio = None
    for _ in range(_ATTEMPTS):
        base_t, base_r, inst_t, inst_r = _timed_pair()
        # Self-check: the stripped copies must be behaviourally identical
        # to the real methods, or the timing comparison is meaningless.
        assert inst_r == base_r, (
            "stripped baseline methods drifted from the instrumented ones"
        )
        ratio = inst_t / base_t
        if ratio <= _MAX_RATIO:
            return
    pytest.fail(
        f"disabled instrumentation costs {ratio:.3f}x the stripped "
        f"baseline (limit {_MAX_RATIO}x)"
    )
