"""ScenarioSpec: declarative sweeps must match the hand-rolled loops."""

import pytest

from repro.experiments import fig6_bandwidth, fig7_rtt, fig8_nflows, fig9_web, fig_hybrid
from repro.experiments.common import run_dumbbell
from repro.experiments.scenarios import ScenarioPoint, ScenarioSpec
from repro.experiments.sweep import result_row
from repro.runner import dumbbell_spec

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


BG = {"model": "pert_red", "share": 0.5, "n_flows": 20}


def _bg_spec(**kwargs):
    return ScenarioSpec(
        schemes=("pert",),
        base=dict(bandwidth=2e6, rtt=0.04, n_fwd=2, duration=2.0,
                  warmup=0.5, seed=3),
        points=[
            ScenarioPoint(overrides={"n_fwd": 2}, tags={"n": 2}),
            ScenarioPoint(overrides={"n_fwd": 4}, tags={"n": 4},
                          background={"model": "tcp_red", "share": 0.2}),
        ],
        **kwargs,
    )


def test_spec_level_background_threads_into_kwargs_and_tags():
    spec = _bg_spec(background=BG)
    plain, pointwise = spec.points
    # spec-level background reaches every point's run kwargs…
    assert spec.kwargs_for(plain)["background"] == BG
    # …unless the point carries its own, which wins
    assert spec.kwargs_for(pointwise)["background"] == {
        "model": "tcp_red", "share": 0.2}
    # and rows gain the identifying columns
    assert spec.tags_for(plain) == {"n": 2, "bg_model": "pert_red",
                                    "bg_share": 0.5}
    assert spec.tags_for(pointwise) == {"n": 4, "bg_model": "tcp_red",
                                        "bg_share": 0.2}


def test_no_background_leaves_kwargs_and_tags_untouched():
    spec = _bg_spec()
    plain, pointwise = spec.points
    assert "background" not in spec.kwargs_for(plain)
    assert spec.tags_for(plain) == {"n": 2}
    # the point-level background still applies without a spec-level one
    assert spec.kwargs_for(pointwise)["background"] == {
        "model": "tcp_red", "share": 0.2}


def test_explicit_bg_tags_are_not_clobbered():
    spec = _bg_spec(background=BG)
    point = ScenarioPoint(overrides={}, tags={"n": 8, "bg_share": "custom"})
    assert spec.tags_for(point)["bg_share"] == "custom"
    assert spec.tags_for(point)["bg_model"] == "pert_red"


def test_background_distinguishes_cache_keys():
    spec = _bg_spec(background=BG)
    plain = _bg_spec()
    keys = {
        dumbbell_spec("pert", **s.kwargs_for(p)).cache_key
        for s in (spec, plain) for p in s.points
    }
    # four jobs: with/without spec background x two points (the second
    # point's own background makes its two variants collide on purpose)
    assert len(keys) == 3


def test_hybrid_spec_rows_match_hand_rolled_loop():
    spec = _bg_spec(background={"model": "pert_red", "share": 0.3,
                                "n_flows": 6})
    rows = spec.run(workers=0, cache=False)
    hand = []
    for point in spec.points:
        for scheme in spec.resolved_schemes():
            result = run_dumbbell(scheme, **spec.kwargs_for(point))
            hand.append(result_row(result, spec.tags_for(point)))
    assert rows == hand
    assert all(row["bg_model"] in ("pert_red", "tcp_red") for row in rows)


@pytest.mark.parametrize("n", [2, 4])
def test_hybrid_spec_refuses_a_flow_count_with_no_background(n):
    """The packet foreground takes at least four flows; a flow count that
    leaves the fluid background none fails when the spec is built, not
    inside its hybrid job after the packet point has run."""
    with pytest.raises(ValueError, match=f"flow count {n} "):
        fig_hybrid.spec(flow_counts=[10, n])
    assert len(fig_hybrid.spec(flow_counts=[5]).points) == 2


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
