"""docs/RESULTS.md rendering: deterministic, badge-bearing, table-complete."""

from __future__ import annotations

from repro.validate.bands import Band, check_metric
from repro.validate.docgen import render_results_md, write_results_md
from repro.validate.verdict import FigureVerdict, Verdict


def _verdict():
    return Verdict(tier="quick", figures=[
        FigureVerdict(
            "fig6", "Figure 6 — impact of bottleneck bandwidth",
            checks=[
                check_metric("pert.norm_queue@bandwidth_mbps=8",
                             Band(target=0.14, rel_tol=1e-6), 0.14),
                check_metric("pert.jain",
                             Band(target=0.99, rel_tol=0.01, source="paper",
                                  known_gap=True, note="Table 1 gap"),
                             0.5),
                check_metric("pert.drop_rate",
                             Band(max=0.01, source="paper", known_gap=True),
                             0.002),
            ],
            unchecked=2, wall_time=3.2,
        ),
        FigureVerdict("fig9", "Figure 9 — web traffic", checks=[],
                      error="runner exploded"),
    ])


def test_render_is_deterministic():
    assert render_results_md(_verdict()) == render_results_md(_verdict())


def test_wall_time_does_not_leak_into_doc():
    a = _verdict()
    b = _verdict()
    b.figures[0].wall_time = 99.0
    assert render_results_md(a) == render_results_md(b)


def test_content_has_badges_and_tables():
    text = render_results_md(_verdict())
    assert "GENERATED FILE" in text
    assert "python -m repro.validate run --quick" in text
    assert "✅ pass" in text
    assert "⚠️ known gap" in text and "Table 1 gap" in text
    assert "✅ closed gap" in text
    assert "1 pass, 0 fail, 1 known gaps, 1 closed gaps, 0 missing" in text
    assert "❌ FAIL" in text
    assert "`pert.norm_queue@bandwidth_mbps=8`" in text
    assert "runner exploded" in text
    assert "+0.00%" in text  # deviation column for the on-target metric
    assert "2 additional measured metrics carry no band" in text


def test_write_results_md_round_trips_bytes(tmp_path):
    path = write_results_md(_verdict(), tmp_path / "RESULTS.md")
    assert path.read_text(encoding="utf-8") == render_results_md(_verdict())
    # regeneration over an existing file is byte-identical
    write_results_md(_verdict(), path)
    assert path.read_text(encoding="utf-8") == render_results_md(_verdict())
