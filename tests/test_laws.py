"""The control-law library: one law, three places.

Pins the decision of PR 18.  Each law is written once in
:mod:`repro.laws`; the router queues, the PERT senders and the fluid
slope are adapters around it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.laws
from repro.core.pert import PertSender
from repro.experiments.scenarios import SCHEMES, scheme_sender_kwargs
from repro.laws import GentleRedCurve, PiResponse, RedCurve
from repro.sim.engine import Simulator
from repro.sim.queues import (
    DISCIPLINES,
    PiQueue,
    QueueConfig,
    RedQueue,
    make_queue,
)
from repro.tcp.sack import SackEcnSender

from .conftest import make_dumbbell, make_flow

# ----------------------------------------------------------------------
# (a) bit-for-bit against the parent commit's router code
# ----------------------------------------------------------------------
# float.hex() of PiQueue.update() and RedQueue.mark_probability()
# (gentle and not) at commit 70f07b3 — the last one where the queues
# carried their own arithmetic — on the drive below.  benchmarks/e2e/expected.json pins packet.router on the same
# arithmetic, so the shared PI step keeps PiQueue's operand order
# ``gamma*e - beta*e_prev + p``; the end host's former order
# ``p + gamma*e - beta*e_prev`` differs in the last bits.
LENGTHS = [(37 * i * i + 11 * i) % 97 for i in range(64)]
AVGS = [i * 0.61 for i in range(64)]
PI_ARGS = dict(q_ref=40.0, a=1.822e-3, b=1.816e-3)
RED_ARGS = dict(min_th=5.0, max_th=15.0, max_p=0.1)

PI_PINS = """
0x0.0p+0 0x1.653c9abb01c93p-4 0x1.1000c9539b888p-3 0x1.17df19d66adb4p-3
0x1.93e1c9b413987p-4 0x1.2f6e82949a568p-6 0x1.2b020c49ba5e4p-4
0x1.5f3f961804d99p-4 0x1.d00713f077ccep-5 0x1.4c521dda059a8p-3
0x1.964a59c065b68p-5 0x1.246173b85e80ep-4 0x1.a4873365881a5p-5
0x1.5410f94c87982p-3 0x1.0000000000003p-4 0x1.7eb8d8234224ap-4
0x1.523704790b84dp-4 0x1.e7a743a647feap-6 0x1.c927913e81454p-4
0x1.36ed6777079e7p-3 0x1.33b96af038e2cp-3 0x1.b55ef1fddebdep-4
0x1.5c39bcba30138p-6 0x1.1fd7a13c254a9p-4 0x1.3da5119ce0765p-4
0x1.5fcc1871e6cdep-5 0x1.24f8726d04e64p-3 0x1.972474538ef48p-6
0x1.5093964a59c10p-5 0x1.faebc408d8eecp-7 0x1.fe5a78f25a256p-4
0x1.fa22706d50680p-7 0x1.4dec1c1d6cf8fp-5 0x1.8d6909aed56c2p-6
0x1.23e39f77292c7p-3 0x1.5c810a569b17ep-5 0x1.3ba12b5e529c0p-4
0x1.1dd3bafd97704p-4 0x1.511dffc5479e8p-6 0x1.b252ce032db23p-4
0x1.32f01754b05bap-3 0x1.372f76e6106aep-3 0x1.cb3e5753a3ec7p-4
0x1.efb6dca07f68cp-6 0x1.53c36113404f2p-4 0x1.80a9de8b3b328p-4
0x1.02107b7846633p-4 0x1.55a6c5d206c8bp-3 0x1.acc92146a1a60p-5
0x1.2830a0b1bbcfdp-4 0x1.9d388a8b08de2p-5 0x1.4e7ee9142b306p-3
0x1.dab191dde3766p-5 0x1.64883fd50225ep-4 0x1.3076c050bd882p-4
0x1.424e592967034p-6 0x1.9835158b82801p-4 0x1.1aa2e3c536d69p-3
0x1.139a7c17a8937p-3 0x1.6d71f36262cc2p-4 0x1.db0142f61ef40p-10
0x1.90f301eabbcc0p-5 0x1.bd09e12a51e40p-5 0x1.23f67f4dbdfaap-6
""".split()


RED_GENTLE_PINS = """
0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
0x0.0p+0 0x1.41205bc01a371p-8 0x1.6872b020c49b9p-7 0x1.182a9930be0dfp-6
0x1.7c1bda5119ce2p-6 0x1.e00d1b71758e2p-6 0x1.21ff2e48e8a71p-5
0x1.53f7ced916873p-5 0x1.85f06f6944673p-5 0x1.b7e90ff972473p-5
0x1.e9e1b089a0276p-5 0x1.0ded288ce703bp-4 0x1.26e978d4fdf3bp-4
0x1.3fe5c91d14e3dp-4 0x1.58e219652bd3dp-4 0x1.71de69ad42c3dp-4
0x1.8adab9f559b3ep-4 0x1.d70a3d70a3d71p-4 0x1.367a0f9096bb8p-3
0x1.816f0068db8b8p-3 0x1.cc63f141205b8p-3 0x1.0bac710cb2960p-2
0x1.3126e978d4fe0p-2 0x1.56a161e4f7660p-2 0x1.7c1bda5119ce0p-2
0x1.a19652bd3c360p-2 0x1.c710cb295e9e0p-2 0x1.ec8b439581060p-2
0x1.0902de00d1b72p-1 0x1.1bc01a36e2eb2p-1 0x1.2e7d566cf41f2p-1
0x1.413a92a305532p-1 0x1.53f7ced916872p-1 0x1.66b50b0f27bb2p-1
0x1.7972474538ef4p-1 0x1.8c2f837b4a234p-1 0x1.9eecbfb15b574p-1
0x1.b1a9fbe76c8b4p-1 0x1.c467381d7dbf4p-1 0x1.d72474538ef34p-1
0x1.e9e1b089a0276p-1 0x1.fc9eecbfb15b6p-1 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0
""".split()

RED_PINS = """
0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
0x0.0p+0 0x1.41205bc01a371p-8 0x1.6872b020c49b9p-7 0x1.182a9930be0dfp-6
0x1.7c1bda5119ce2p-6 0x1.e00d1b71758e2p-6 0x1.21ff2e48e8a71p-5
0x1.53f7ced916873p-5 0x1.85f06f6944673p-5 0x1.b7e90ff972473p-5
0x1.e9e1b089a0276p-5 0x1.0ded288ce703bp-4 0x1.26e978d4fdf3bp-4
0x1.3fe5c91d14e3dp-4 0x1.58e219652bd3dp-4 0x1.71de69ad42c3dp-4
0x1.8adab9f559b3ep-4 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0
0x1.0000000000000p+0
""".split()



def _drive_queue(queue):
    """Step the queue's controller on LENGTHS packets of backlog."""
    out = []
    for n in LENGTHS:
        queue._buf.clear()
        queue._buf.extend([None] * n)
        out.append(queue.update().hex())
    return out


def _step(law):
    """Step a law directly, the way an end host does per ACK."""
    return [law.update(float(n)).hex() for n in LENGTHS]


def test_pi_step_is_the_parents_router_arithmetic():
    assert _drive_queue(PiQueue(1000, **PI_ARGS)) == PI_PINS
    assert _step(PiResponse.from_gains(
        PI_ARGS["a"], PI_ARGS["b"], PI_ARGS["q_ref"])) == PI_PINS


@pytest.mark.parametrize("gentle, curve_cls, pins", [
    (True, GentleRedCurve, RED_GENTLE_PINS), (False, RedCurve, RED_PINS)])
def test_red_ramp_is_the_parents_router_arithmetic(gentle, curve_cls, pins):
    queue = RedQueue(1000, gentle=gentle, **RED_ARGS)
    got = []
    for avg in AVGS:
        queue.avg = avg
        got.append(queue.mark_probability().hex())
    assert got == pins
    curve = curve_cls(RED_ARGS["min_th"], RED_ARGS["max_th"], RED_ARGS["max_p"])
    assert [curve.probability(avg).hex() for avg in AVGS] == pins


def test_pi_constructor_and_from_gains_share_the_recurrence():
    """``PiResponse(k, m, ...)`` is ``from_gains`` of its bilinear gains,
    started on target rather than from an empty queue."""
    by_km = PiResponse(k=0.5, m=2.0, target_delay=40.0, delta=0.01)
    by_gains = PiResponse.from_gains(by_km.gamma, by_km.beta, 40.0)
    assert (by_km._prev_err, by_gains._prev_err) == (0.0, -40.0)
    by_gains._prev_err = 0.0
    assert _step(by_km) == _step(by_gains)


# ----------------------------------------------------------------------
# (b) one law object serves the router and the end host
# ----------------------------------------------------------------------
class QuadraticCurve:
    """The custom law of examples/custom_aqm_emulation.py: any object
    with ``probability(signal)`` is a curve, whatever the signal's unit."""

    def __init__(self, t_min, t_full):
        self.t_min = t_min
        self.t_full = t_full

    def probability(self, signal):
        if signal <= self.t_min:
            return 0.0
        x = min(1.0, (signal - self.t_min) / (self.t_full - self.t_min))
        return x * x


def test_a_law_defined_elsewhere_runs_at_the_end_host():
    sim = Simulator(seed=7)
    db = make_dumbbell(sim, n=3, buffer_pkts=100)
    senders = []
    for i in range(3):
        sender, _ = make_flow(sim, db, idx=i, sender_cls=PertSender)
        sender.curve = QuadraticCurve(t_min=0.005, t_full=0.025)  # seconds
        sender.start(at=0.1 * i)
        senders.append(sender)
    sim.run(until=10.0)
    assert sum(s.early_responses for s in senders) > 0


def test_the_same_law_runs_at_the_router():
    sim = Simulator(seed=7)

    def red():
        queue = make_queue(QueueConfig("red", capacity_pkts=100), sim=sim)
        queue.curve = QuadraticCurve(t_min=5.0, t_full=25.0)  # packets
        return queue

    db = make_dumbbell(sim, n=3, qdisc_factory=red)
    for i in range(3):
        sender, _ = make_flow(sim, db, idx=i, sender_cls=SackEcnSender)
        sender.start(at=0.1 * i)
    sim.run(until=10.0)
    assert db.bottleneck_queue.stats.marks > 0


def _law_of(holder):
    law = getattr(holder, "curve", None) or holder.controller
    return type(law)


def test_every_aqm_discipline_holds_a_library_law():
    aqms = sorted(set(DISCIPLINES) - {"droptail"})
    assert aqms == ["pi", "red"]
    for name in aqms:
        queue = make_queue(QueueConfig(name, capacity_pkts=10))
        assert _law_of(queue).__module__ == "repro.laws", name


def test_every_pert_scheme_holds_a_library_law():
    perts = {name: s for name, s in SCHEMES.items()
             if issubclass(s.sender_cls, PertSender)}
    assert sorted(perts) == ["pert", "pert-pi"]
    laws = {}
    for name, scheme in perts.items():
        sim = Simulator(seed=1)
        sender, _ = make_flow(
            sim, make_dumbbell(sim), sender_cls=scheme.sender_cls,
            **scheme_sender_kwargs(scheme, 8e6, 1000, 2, 0.04))
        assert (sender.curve is None) != (sender.controller is None)
        laws[name] = _law_of(sender)
        assert laws[name].__module__ == "repro.laws", name
    assert laws == {"pert": GentleRedCurve, "pert-pi": PiResponse}


def test_the_law_module_is_a_leaf():
    """``sim.queues`` sits below ``core`` in the import graph and both
    import the laws, so the module may import nothing from ``repro``."""
    tree = ast.parse(Path(repro.laws.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("repro")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("repro") for a in node.names)
