"""ScenarioSpec: declarative sweeps must match the hand-rolled loops."""

from repro.experiments import fig6_bandwidth, fig7_rtt, fig8_nflows, fig9_web
from repro.experiments.common import run_dumbbell
from repro.experiments.scenarios import ScenarioPoint, ScenarioSpec
from repro.experiments.sweep import result_row

_SCHEMES = ("pert", "sack-droptail")


def _hand_rolled(spec):
    """The historical pattern: serial loop, point-major, scheme-minor."""
    rows = []
    for point in spec.points:
        for scheme in spec.resolved_schemes():
            result = run_dumbbell(scheme, **spec.kwargs_for(point))
            rows.append(result_row(result, dict(point.tags)))
    return rows


def test_fig8_spec_matches_hand_rolled_loop():
    spec = fig8_nflows.spec(
        flow_counts=[2, 3], bandwidth=2e6, duration=3.0, warmup=1.0,
        seed=3, schemes=_SCHEMES, web_sessions=0,
    )
    assert spec.run(workers=0, cache=False) == _hand_rolled(spec)


def test_fig7_spec_matches_hand_rolled_loop():
    # fig7 is the one figure whose per-point overrides (duration, warmup)
    # differ from its tag columns (rtt_ms) — the case ScenarioPoint's
    # overrides/tags split exists for.
    spec = fig7_rtt.spec(
        rtts=[0.02, 0.04], bandwidth=2e6, n_fwd=2, seed=3,
        schemes=_SCHEMES, web_sessions=0, base_duration=3.0,
    )
    assert spec.run(workers=0, cache=False) == _hand_rolled(spec)
    # derived run length stays out of the rows; the tag column is present
    rows = spec.run(workers=0, cache=False)
    assert all("duration" not in row and "rtt_ms" in row for row in rows)


def test_fig7_duration_scales_with_rtt():
    spec = fig7_rtt.spec(rtts=[0.02, 0.4], base_duration=40.0)
    short, long = (spec.kwargs_for(p) for p in spec.points)
    assert short["duration"] == 40.0
    assert long["duration"] == 120.0  # 300 * 0.4
    assert long["warmup"] == 120.0 * 0.375


def test_fig6_tags_report_mbps():
    spec = fig6_bandwidth.spec(bandwidths=[1e6, 2e6])
    tags = [dict(p.tags) for p in spec.points]
    assert [t["bandwidth_mbps"] for t in tags] == [1.0, 2.0]
    # the raw-bps override feeds run_dumbbell but never the rows
    assert all("bandwidth" not in t for t in tags)
    assert [p.overrides["bandwidth"] for p in spec.points] == [1e6, 2e6]


def test_all_four_figures_expose_specs():
    for mod in (fig6_bandwidth, fig7_rtt, fig8_nflows, fig9_web):
        spec = mod.spec()
        assert spec.points, mod.__name__
        # the reporting metadata is the module's, not the sweep's
        assert mod.COLUMNS, mod.__name__
        assert mod.TITLE.startswith("Figure"), mod.__name__
        # every point merges cleanly with the base kwargs
        for point in spec.points:
            kwargs = spec.kwargs_for(point)
            assert "bandwidth" in kwargs or "bandwidth" in point.overrides
