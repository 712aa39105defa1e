"""Expected-file round-trips and verdict rollup semantics."""

from __future__ import annotations

import json

import pytest

from repro.validate.bands import Band, check_metric
from repro.validate.verdict import (
    VERDICT_SCHEMA,
    ExpectedFigure,
    FigureVerdict,
    Verdict,
    load_expected,
    write_expected,
)


def _expected():
    return ExpectedFigure(
        figure="figX",
        tiers={
            "quick": {"pert.q@bw=8": Band(target=0.14, rel_tol=1e-6)},
            "full": {"pert.q@bw=10": Band(max=0.5, note="hand-widened")},
        },
    )


class TestExpectedFiles:
    def test_write_load_round_trip(self, tmp_path):
        path = write_expected(_expected(), tmp_path / "figX.json")
        loaded = load_expected(path)
        assert loaded.figure == "figX"
        assert loaded.bands("quick") == _expected().tiers["quick"]
        assert loaded.bands("full") == _expected().tiers["full"]
        assert loaded.bands("nightly") == {}  # unknown tier -> empty

    def test_rewrite_is_byte_stable(self, tmp_path):
        p1 = write_expected(_expected(), tmp_path / "a.json")
        first = p1.read_bytes()
        p2 = write_expected(load_expected(p1), tmp_path / "a.json")
        assert p2.read_bytes() == first

    def test_layout_is_figure_and_tiers_only(self, tmp_path):
        path = write_expected(_expected(), tmp_path / "figX.json")
        assert set(json.loads(path.read_text(encoding="utf-8"))) == {
            "figure", "tiers"}

    def test_a_paper_band_is_refused_by_name(self, tmp_path):
        path = write_expected(_expected(), tmp_path / "figX.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        data["tiers"]["full"]["metrics"]["pert.jain"] = {
            "min": 0.8, "source": "paper"}
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"figX\.json: full band 'pert\.jain'"):
            load_expected(path)


def _check(status, metric="m", known_gap=False):
    band = Band(target=1.0, abs_tol=0.1, known_gap=known_gap)
    measured = {"pass": 1.0, "fail": 5.0, "gap": 5.0, "closed_gap": 1.0,
                "missing": None}[status]
    c = check_metric(metric, band, measured)
    assert c.status == status
    return c


class TestFigureVerdict:
    def test_status_rollup(self):
        assert FigureVerdict("f", "f", checks=[_check("pass")]).status == "pass"
        assert FigureVerdict(
            "f", "f", checks=[_check("pass"), _check("gap", known_gap=True)]
        ).status == "gap"
        assert FigureVerdict(
            "f", "f", checks=[_check("pass"), _check("fail")]
        ).status == "fail"
        # a closed gap is in band: no failure, and no open gap either
        assert FigureVerdict(
            "f", "f", checks=[_check("pass"), _check("closed_gap", known_gap=True)]
        ).status == "pass"

    def test_missing_fails_figure(self):
        fv = FigureVerdict("f", "f", checks=[_check("missing")])
        assert fv.status == "fail" and fv.failed

    def test_runner_error_fails_figure(self):
        fv = FigureVerdict("f", "f", checks=[], error="boom")
        assert fv.status == "fail"

    def test_json_round_trip(self):
        fv = FigureVerdict(
            "f", "Fig f", checks=[_check("pass"), _check("fail")],
            unchecked=3, wall_time=1.5,
        )
        back = FigureVerdict.from_json(fv.to_json())
        assert back.figure == "f" and back.title == "Fig f"
        assert [c.status for c in back.checks] == ["pass", "fail"]
        assert back.unchecked == 3 and back.status == "fail"


class TestVerdict:
    def test_rollup_and_counts(self):
        v = Verdict(tier="quick", figures=[
            FigureVerdict("a", "a", checks=[_check("pass"), _check("pass")]),
            FigureVerdict("b", "b", checks=[_check("gap", known_gap=True),
                                            _check("closed_gap", known_gap=True)]),
            FigureVerdict("c", "c", checks=[_check("fail")]),
        ])
        assert v.status == "fail"
        assert v.failing_figures == ["c"]
        assert v.counts() == {"pass": 2, "fail": 1, "gap": 1, "closed_gap": 1,
                              "missing": 0}

    def test_save_load_round_trip(self, tmp_path):
        v = Verdict(tier="quick", figures=[
            FigureVerdict("a", "a", checks=[_check("pass")]),
        ])
        path = v.save(tmp_path / "verdict.json")
        loaded = Verdict.load(path)
        assert loaded.tier == "quick"
        assert loaded.status == "pass"
        assert [f.figure for f in loaded.figures] == ["a"]

    def test_schema_mismatch_rejected(self, tmp_path):
        path = Verdict(tier="quick").save(tmp_path / "v.json")
        text = path.read_text().replace(
            f'"schema": {VERDICT_SCHEMA}', '"schema": 999'
        )
        path.write_text(text)
        with pytest.raises(ValueError, match="schema"):
            Verdict.load(path)
