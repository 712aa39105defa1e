"""Harness tests for the extension scheme pert-rem (PERT emulating REM)."""

import pytest

from repro.experiments.common import run_dumbbell

KW = dict(bandwidth=8e6, rtt=0.06, n_fwd=6, duration=25.0, warmup=10.0,
          seed=4)


@pytest.mark.parametrize("scheme", ["pert-rem"])
def test_extension_scheme_controls_queue(scheme):
    r = run_dumbbell(scheme, **KW)
    assert r.drop_rate < 5e-3
    assert r.utilization > 0.85
    assert r.norm_queue < 0.5
    assert r.early_responses > 0
    assert r.jain > 0.9

