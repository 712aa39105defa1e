"""Bit-for-bit pins of what the tagged-flow runs hand Figures 2-4.

Until the per-ACK RTT samples, the flow's loss detections and the
bottleneck's drops became records on the Collector's stream, they lived
in ``TcpSender.rtt_trace`` / ``.loss_events`` and a ``DropLog``.  These
pins were generated at commit fde8b62 — the last one with those lists —
*before* any source edit, so "the records carry the same numbers" is
checkable in seconds (Figures 2-4 are otherwise held only by the
minutes-long validation tier).

Regenerate (only when a change *means* to move the simulation) from the
repo root::

    PYTHONPATH=src python -c "
    from tests.experiments.test_trace_pins import measured
    import pprint; pprint.pprint(measured(), width=78, sort_dicts=False)"

and paste the dict over ``PINS``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.section2 import QUICK_CASES, case_trace_job

CASE = QUICK_CASES[0]
CASE_KW = dict(n_fwd=CASE.n_fwd, n_rev=CASE.n_rev,
               web_sessions=CASE.web_sessions, bandwidth=16e6, rtt=0.060,
               duration=12.0, warmup=4.0, seed=1)
TRACE_FIELDS = ("rtt_trace", "flow_losses", "queue_drops", "queue_times",
                "queue_lengths")


def _sha(series) -> str:
    """SHA-256 over a series with every float spelled ``float.hex()``."""
    def spell(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, (list, tuple)):
            return [spell(x) for x in v]
        return v
    return hashlib.sha256(json.dumps(spell(series)).encode()).hexdigest()


def case_trace_pin(scheme: str) -> dict:
    """Length and digest of every series a :class:`CaseTrace` carries."""
    payload = case_trace_job(dict(CASE_KW, scheme=scheme))
    return {f: [len(payload[f]), _sha(payload[f])] for f in TRACE_FIELDS}


CASES = {
    "case_trace": (case_trace_pin, ("sack-droptail", "pert")),
}


def measured() -> dict:
    """``{what: {scheme: pin}}`` for this tree (the generator)."""
    return {name: {scheme: fn(scheme) for scheme in schemes}
            for name, (fn, schemes) in CASES.items()}


#: generated at fde8b62 by the snippet in the module docstring
PINS = {'case_trace': {'sack-droptail': {'rtt_trace': [2339,
                                                '3abae54e307a14a63274f68c272327318c3691807ecf88c11044572c6272caff'],
                                  'flow_losses': [3,
                                                  '9dbb1850bb510516bff0cd9825f37833e2ba3ec8117207eb8241af1e198b7ead'],
                                  'queue_drops': [99,
                                                  '4a5d7fdae13e4cdf6f3d2f1542db5f70be71c7578f2fb2b6c9212ec7a325444a'],
                                  'queue_times': [2400,
                                                  '2ba38949e972907d51543a47ab2bc50796b48a5cd6ce2764f58ff3bfdbb20ceb'],
                                  'queue_lengths': [2400,
                                                    '87d74ab3ab5e749de2134f594c2f11a1aae31ba40c0178244437958bef3d8835']},
                'pert': {'rtt_trace': [2476,
                                       'd313777c9b6efb7f9067a67d743c4e038aa9c8f784f21f63fc38374ec15d2ea6'],
                         'flow_losses': [0,
                                         '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
                         'queue_drops': [0,
                                         '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
                         'queue_times': [2400,
                                         '2ba38949e972907d51543a47ab2bc50796b48a5cd6ce2764f58ff3bfdbb20ceb'],
                         'queue_lengths': [2400,
                                           'e9d5e064c188c4fcd7a47a9ab9a80e6c0c6e3fb7abf2a2d430d2d41d36cd31a1']}}}


@pytest.mark.parametrize("what,scheme", [
    (name, scheme) for name, (_, schemes) in CASES.items() for scheme in schemes
])
def test_records_carry_the_numbers_the_sender_lists_held(what, scheme):
    assert CASES[what][0](scheme) == PINS[what][scheme]
