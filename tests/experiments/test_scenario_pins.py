"""Bit-for-bit pins of the three non-dumbbell packet scenarios.

The parking lot (Figure 11), the arrival/departure staircase (Figure 12)
and the CBR squeeze (Section 4.7) each had a hand-rolled harness until
they moved into the phased shell of :mod:`repro.experiments.common`.
These ``float.hex()`` pins were generated at commit e929d5d — the last
one with the three private harnesses — *before* any source edit, so
"the move changed no RNG draw and no event sequence number" is checkable
in seconds (fig12b has no quick tier; nothing else in tier-1 pins it).

Regenerate (only when a change *means* to move the simulation) from the
repo root::

    PYTHONPATH=src python -c "
    from tests.experiments.test_scenario_pins import measured
    import pprint; pprint.pprint(measured(), width=78, sort_dicts=False)"

and paste the dict over ``PINS``.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig11_multibottleneck import run_parking_lot
from repro.experiments.fig12_dynamics import run_dynamics
from repro.experiments.fig12b_cbr_dynamics import run_cbr_dynamics

PARKING_KW = dict(n_routers=3, cloud_size=2, link_bw=8e6, duration=9.0,
                  warmup=5.0, seed=1)
DYNAMICS_KW = dict(n_cohorts=2, cohort_size=2, epoch=4.0, bandwidth=6e6,
                   seed=1)
CBR_KW = dict(bandwidth=6e6, n_flows=3, t_on=2.0, t_off=4.0, duration=6.0,
              seed=1)

ROW_FLOATS = ("norm_queue", "drop_rate", "utilization", "jain")


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


def parking_lot_pin(scheme: str) -> dict:
    """Every field of every per-hop row."""
    rows = run_parking_lot(scheme, **PARKING_KW)
    assert all(set(r) == {"hop", "scheme", *ROW_FLOATS} for r in rows)
    return {"hops": [r["hop"] for r in rows],
            "schemes": [r["scheme"] for r in rows],
            **{f: _hex(r[f] for r in rows) for f in ROW_FLOATS}}


def dynamics_pin(scheme: str) -> dict:
    """The sample instants and every cohort's rate at each."""
    res = run_dynamics(scheme, **DYNAMICS_KW)
    return {"times": _hex(res["times"]),
            "cohort_rates_bps": [_hex(s) for s in res["cohort_rates_bps"]]}


def cbr_pin(scheme: str) -> dict:
    """The aggregate rate series and both drop counts."""
    res = run_cbr_dynamics(scheme, **CBR_KW)
    return {"times": _hex(res["times"]),
            "agg_rates_bps": _hex(res["agg_rates_bps"]),
            "drops_during_squeeze": res["drops_during_squeeze"],
            "drops_total": res["drops_total"]}


CASES = {
    "parking_lot": (parking_lot_pin, ("pert", "sack-red-ecn")),
    "dynamics": (dynamics_pin, ("pert", "sack-droptail")),
    "cbr": (cbr_pin, ("pert", "sack-red-ecn")),
}


def measured() -> dict:
    """``{scenario: {scheme: pin}}`` for this tree (the generator)."""
    return {name: {scheme: fn(scheme) for scheme in schemes}
            for name, (fn, schemes) in CASES.items()}


#: generated at e929d5d by the snippet in the module docstring
PINS = {'parking_lot': {'pert': {'hops': ['R1-R2', 'R2-R3'],
                          'schemes': ['pert', 'pert'],
                          'norm_queue': '0x1.5333333333333p-3 '
                                        '0x1.6cccccccccccdp-3',
                          'drop_rate': '0x0.0p+0 0x1.9157dbf11b3d5p-7',
                          'utilization': '0x1.eac083126e979p-1 '
                                         '0x1.f000000000000p-1',
                          'jain': '0x1.6cfc8528bcdf2p-1 '
                                  '0x1.64e825ac6008fp-1'},
                 'sack-red-ecn': {'hops': ['R1-R2', 'R2-R3'],
                                  'schemes': ['sack-red-ecn', 'sack-red-ecn'],
                                  'norm_queue': '0x1.5b0a3d70a3d71p-1 '
                                                '0x1.5c7ae147ae148p-1',
                                  'drop_rate': '0x1.35e6c50061dd1p-8 '
                                               '0x1.113359c4fd9d5p-6',
                                  'utilization': '0x1.0000000000000p+0 '
                                                 '0x1.ff5c28f5c28f6p-1',
                                  'jain': '0x1.2d0d0d5e84f54p-1 '
                                          '0x1.021fc9e30f79dp-1'}},
 'dynamics': {'pert': {'times': '0x1.0000000000000p+0 0x1.0000000000000p+1 '
                                '0x1.8000000000000p+1 0x1.0000000000000p+2 '
                                '0x1.4000000000000p+2 0x1.8000000000000p+2 '
                                '0x1.c000000000000p+2 0x1.0000000000000p+3 '
                                '0x1.2000000000000p+3 0x1.4000000000000p+3 '
                                '0x1.6000000000000p+3 0x1.8000000000000p+3 '
                                '0x1.a000000000000p+3 0x1.c000000000000p+3 '
                                '0x1.e000000000000p+3 0x1.0000000000000p+4',
                       'cohort_rates_bps': ['0x1.f018000000000p+21 '
                                            '0x1.32a4000000000p+22 '
                                            '0x1.6666000000000p+22 '
                                            '0x1.59b4000000000p+22 '
                                            '0x1.5d9c000000000p+21 '
                                            '0x1.339e000000000p+21 '
                                            '0x1.6f30000000000p+21 '
                                            '0x1.6954000000000p+21 '
                                            '0x1.1170000000000p+22 '
                                            '0x1.600d000000000p+22 '
                                            '0x1.4b0e000000000p+22 '
                                            '0x1.6666000000000p+22 '
                                            '0x1.6472000000000p+22 '
                                            '0x1.42c1000000000p+22 '
                                            '0x1.44b5000000000p+22 '
                                            '0x1.4dfc000000000p+22',
                                            '0x0.0p+0 0x0.0p+0 0x0.0p+0 '
                                            '0x0.0p+0 0x1.414a000000000p+21 '
                                            '0x1.f7e8000000000p+20 '
                                            '0x1.28e0000000000p+21 '
                                            '0x1.6f30000000000p+21 '
                                            '0x1.b580000000000p+16 0x0.0p+0 '
                                            '0x0.0p+0 0x0.0p+0 0x0.0p+0 '
                                            '0x0.0p+0 0x0.0p+0 0x0.0p+0']},
              'sack-droptail': {'times': '0x1.0000000000000p+0 '
                                         '0x1.0000000000000p+1 '
                                         '0x1.8000000000000p+1 '
                                         '0x1.0000000000000p+2 '
                                         '0x1.4000000000000p+2 '
                                         '0x1.8000000000000p+2 '
                                         '0x1.c000000000000p+2 '
                                         '0x1.0000000000000p+3 '
                                         '0x1.2000000000000p+3 '
                                         '0x1.4000000000000p+3 '
                                         '0x1.6000000000000p+3 '
                                         '0x1.8000000000000p+3 '
                                         '0x1.a000000000000p+3 '
                                         '0x1.c000000000000p+3 '
                                         '0x1.e000000000000p+3 '
                                         '0x1.0000000000000p+4',
                                'cohort_rates_bps': ['0x1.266f000000000p+22 '
                                                     '0x1.6e36000000000p+22 '
                                                     '0x1.6e36000000000p+22 '
                                                     '0x1.6e36000000000p+22 '
                                                     '0x1.1ab7000000000p+22 '
                                                     '0x1.a9c8000000000p+21 '
                                                     '0x1.9a28000000000p+21 '
                                                     '0x1.9352000000000p+21 '
                                                     '0x1.5f90000000000p+22 '
                                                     '0x1.6e36000000000p+22 '
                                                     '0x1.6e36000000000p+22 '
                                                     '0x1.6e36000000000p+22 '
                                                     '0x1.6e36000000000p+22 '
                                                     '0x1.6e36000000000p+22 '
                                                     '0x1.6e36000000000p+22 '
                                                     '0x1.6e36000000000p+22',
                                                     '0x0.0p+0 0x0.0p+0 '
                                                     '0x0.0p+0 0x0.0p+0 '
                                                     '0x1.4dfc000000000p+20 '
                                                     '0x1.32a4000000000p+21 '
                                                     '0x1.26ec000000000p+21 '
                                                     '0x1.6472000000000p+21 '
                                                     '0x1.d4c0000000000p+17 '
                                                     '0x0.0p+0 0x0.0p+0 '
                                                     '0x0.0p+0 0x0.0p+0 '
                                                     '0x0.0p+0 0x0.0p+0 '
                                                     '0x0.0p+0']}},
 'cbr': {'pert': {'times': '0x1.0000000000000p-1 0x1.0000000000000p+0 '
                           '0x1.8000000000000p+0 0x1.0000000000000p+1 '
                           '0x1.4000000000000p+1 0x1.8000000000000p+1 '
                           '0x1.c000000000000p+1 0x1.0000000000000p+2 '
                           '0x1.2000000000000p+2 0x1.4000000000000p+2 '
                           '0x1.6000000000000p+2 0x1.8000000000000p+2',
                  'agg_rates_bps': '0x1.5ba8000000000p+21 '
                                   '0x1.6d3c000000000p+22 '
                                   '0x1.8a88000000000p+21 '
                                   '0x1.bd50000000000p+21 '
                                   '0x1.80c4000000000p+21 '
                                   '0x1.32a4000000000p+21 '
                                   '0x1.7124000000000p+21 '
                                   '0x1.6184000000000p+21 '
                                   '0x1.8e70000000000p+21 '
                                   '0x1.4b0e000000000p+22 '
                                   '0x1.58ba000000000p+22 '
                                   '0x1.414a000000000p+22',
                  'drops_during_squeeze': 0,
                  'drops_total': 51},
         'sack-red-ecn': {'times': '0x1.0000000000000p-1 '
                                   '0x1.0000000000000p+0 '
                                   '0x1.8000000000000p+0 '
                                   '0x1.0000000000000p+1 '
                                   '0x1.4000000000000p+1 '
                                   '0x1.8000000000000p+1 '
                                   '0x1.c000000000000p+1 '
                                   '0x1.0000000000000p+2 '
                                   '0x1.2000000000000p+2 '
                                   '0x1.4000000000000p+2 '
                                   '0x1.6000000000000p+2 '
                                   '0x1.8000000000000p+2',
                          'agg_rates_bps': '0x1.5ba8000000000p+21 '
                                           '0x1.220a000000000p+22 '
                                           '0x1.dd8a000000000p+22 '
                                           '0x1.6e36000000000p+22 '
                                           '0x1.fdc4000000000p+21 '
                                           '0x1.55cc000000000p+21 '
                                           '0x1.4dfc000000000p+21 '
                                           '0x1.8a88000000000p+21 '
                                           '0x1.ec30000000000p+21 '
                                           '0x1.1558000000000p+22 '
                                           '0x1.4050000000000p+22 '
                                           '0x1.6e36000000000p+22',
                          'drops_during_squeeze': 70,
                          'drops_total': 167}}}


@pytest.mark.parametrize("scenario,scheme", [
    (name, scheme) for name, (_, schemes) in CASES.items() for scheme in schemes
])
def test_scenario_is_bit_identical_to_the_private_harness(scenario, scheme):
    assert CASES[scenario][0](scheme) == PINS[scenario][scheme]
