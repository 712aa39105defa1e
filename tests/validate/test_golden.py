"""update-golden reconciliation rules (repro.validate.golden)."""

from __future__ import annotations

from repro.validate.bands import Band, GOLDEN_ABS_TOL, GOLDEN_REL_TOL
from repro.validate.golden import _reconcile, update_golden
from repro.validate.suite import check_figure, expected_path, paper_bands
from repro.validate.verdict import load_expected


def test_new_metric_gets_default_golden_band():
    new, changed = _reconcile({}, {"pert.q": 0.14})
    assert new["pert.q"] == Band(target=0.14, abs_tol=GOLDEN_ABS_TOL,
                                 rel_tol=GOLDEN_REL_TOL, source="golden")
    assert changed == ["+ pert.q"]


def test_golden_target_replaced_tolerances_kept():
    old = {"pert.q": Band(target=0.1, abs_tol=0.01, rel_tol=0.05,
                          note="hand-widened")}
    new, changed = _reconcile(old, {"pert.q": 0.2})
    band = new["pert.q"]
    assert band.target == 0.2
    assert band.abs_tol == 0.01 and band.rel_tol == 0.05
    assert band.note == "hand-widened"
    assert changed == ["~ pert.q: 0.1 -> 0.2"]


def test_unchanged_golden_reports_no_change():
    old = {"pert.q": Band(target=0.14, rel_tol=1e-6)}
    new, changed = _reconcile(old, {"pert.q": 0.14})
    assert new["pert.q"].target == 0.14
    assert changed == []


def test_unmeasured_golden_dropped():
    old = {"gone.golden": Band(target=1.0), "kept": Band(target=2.0)}
    new, changed = _reconcile(old, {"kept": 2.0})
    assert set(new) == {"kept"}
    assert changed == ["- gone.golden"]


def test_update_golden_pins_no_paper_claim(tmp_path):
    """fig13's module claims 5 of its quick ids: update-golden pins the
    rest, and the next check still judges those 5 by the paper."""
    claimed = paper_bands("fig13", "quick")
    assert len(claimed) == 5
    changes = update_golden("quick", ["fig13"], expected_dir=tmp_path)
    pinned = load_expected(expected_path("fig13", tmp_path)).bands("quick")
    assert pinned and not set(pinned) & set(claimed)
    assert all(b.source == "golden" for b in pinned.values())
    assert sorted(changes["fig13"]) == sorted(f"+ {mid}" for mid in pinned)

    fv = check_figure("fig13", "quick", expected_dir=tmp_path)
    assert fv.error is None and fv.status == "pass"
    sources = {c.metric: c.band.source for c in fv.checks}
    assert {mid: sources[mid] for mid in claimed} == dict.fromkeys(
        claimed, "paper")


def test_update_golden_of_a_figure_with_no_pin_writes_no_file(
        tmp_path, monkeypatch):
    """fig5's every id is a paper claim: no expected file is written, and
    a stale one is removed."""
    monkeypatch.setattr("repro.validate.golden.measure_figure",
                        lambda figure, tier: {"p@delay_ms=10": 0.05})
    stale = expected_path("fig5", tmp_path)
    stale.write_text('{"figure": "fig5", "tiers": {"quick": {"metrics": '
                     '{"p@delay_ms=10": {"target": 0.05}}}}}',
                     encoding="utf-8")
    changes = update_golden("quick", ["fig5"], expected_dir=tmp_path)
    assert changes == {"fig5": ["- p@delay_ms=10"]}
    assert not stale.exists()
