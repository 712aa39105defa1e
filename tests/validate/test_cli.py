"""End-to-end CLI tests for ``python -m repro.validate``.

Exercises the real gate on fig5 (the analytic PERT response curve — the
one suite entry with no simulation behind it, so these stay fast): a
clean run passes and regenerates the results doc byte-identically, and a
deliberately perturbed paper band makes the same run exit non-zero
naming the offending figure.  fig5's bands are all paper claims, which
its module declares, so each run points ``--expected`` at an empty
directory and a perturbed band is injected through ``paper_bands``.
"""

from __future__ import annotations

import dataclasses
import subprocess
from pathlib import Path

import pytest

from repro.experiments import fig5_response_curve
from repro.validate.__main__ import main
from repro.validate.bands import paper_band
from repro.validate.verdict import Verdict


@pytest.fixture
def fig5_expected(tmp_path):
    """An isolated expected dir holding no golden pin (fig5 has none)."""
    exp_dir = tmp_path / "expected"
    exp_dir.mkdir()
    return exp_dir


def _with_paper_bands(monkeypatch, change):
    """Make fig5's module declare its paper bands as edited by *change*."""
    declared = fig5_response_curve.paper_bands

    def paper_bands(tier):
        bands = declared(tier)
        change(bands)
        return bands

    monkeypatch.setattr(fig5_response_curve, "paper_bands", paper_bands)


def _run(tmp_path, exp_dir, extra=()):
    out = tmp_path / "verdict.json"
    docs = tmp_path / "RESULTS.md"
    code = main([
        "run", "--quick", "--figure", "fig5",
        "--expected", str(exp_dir),
        "--out", str(out), "--docs", str(docs), *extra,
    ])
    return code, out, docs


def test_clean_run_passes_and_writes_artifacts(tmp_path, fig5_expected, capsys):
    code, out, docs = _run(tmp_path, fig5_expected)
    assert code == 0
    assert "overall: pass" in capsys.readouterr().out
    verdict = Verdict.load(out)
    assert verdict.tier == "quick"
    assert verdict.status == "pass"
    assert [f.figure for f in verdict.figures] == ["fig5"]
    assert "Figure 5" in docs.read_text(encoding="utf-8")


def test_results_doc_regenerates_byte_identically(tmp_path, fig5_expected):
    code, _, docs = _run(tmp_path, fig5_expected)
    assert code == 0
    first = docs.read_bytes()
    code, _, docs = _run(tmp_path, fig5_expected)
    assert code == 0
    assert docs.read_bytes() == first


def test_perturbed_band_fails_naming_the_figure(tmp_path, fig5_expected,
                                                monkeypatch, capsys):
    def perturb(bands):
        band = bands["p@delay_ms=10"]
        # well outside abs+rel tolerance
        bands["p@delay_ms=10"] = dataclasses.replace(
            band, target=band.target + 0.06)

    _with_paper_bands(monkeypatch, perturb)

    code, out, _ = _run(tmp_path, fig5_expected)
    captured = capsys.readouterr().out
    assert code == 1
    assert "VALIDATION FAILED: fig5" in captured
    assert "p@delay_ms=10" in captured
    assert Verdict.load(out).status == "fail"


def test_missing_paper_metric_fails_as_missing(tmp_path, fig5_expected,
                                               monkeypatch, capsys):
    _with_paper_bands(monkeypatch, lambda bands: bands.update({
        "p@delay_ms=999": paper_band(0.5, abs_tol=0.1)}))

    code, out, _ = _run(tmp_path, fig5_expected)
    assert code == 1
    assert "not measured" in capsys.readouterr().out
    verdict = Verdict.load(out)
    statuses = {c.metric: c.status for c in verdict.figures[0].checks}
    assert statuses["p@delay_ms=999"] == "missing"


def test_plain_run_leaves_the_checkout_clean(tmp_path, monkeypatch, capsys):
    """Neither CLI writes inside the repository unless told to.

    Run from the repository root, as the README does: ``validate run``
    used to rewrite the tracked ``docs/RESULTS.md`` as a side effect
    (ROADMAP 1d), and regenerating a figure used to mean a benchmark
    suite that rewrote tracked artifact files (ROADMAP 4c).
    """
    from repro.experiments.__main__ import main as experiments_main

    repo = Path(__file__).resolve().parents[2]

    def status():
        try:
            out = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=all"],
                cwd=repo, capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None  # not a git checkout: the byte check below remains
        return out.stdout

    before = status()
    results_md = (repo / "docs" / "RESULTS.md").read_bytes()
    monkeypatch.chdir(repo)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["run", "--quick", "--figure", "fig5"]) == 0
    assert (tmp_path / "cache" / "validation" / "verdict-quick.json").exists()
    assert experiments_main(["fig5"]) == 0
    assert "Figure 5" in capsys.readouterr().out
    assert (repo / "docs" / "RESULTS.md").read_bytes() == results_md
    assert status() == before


def test_cache_dir_places_the_verdict(tmp_path, monkeypatch, capsys):
    """``--cache-dir A`` puts the verdict in ``A/validation``, never in
    ``$REPRO_CACHE_DIR`` or under ``$HOME``, and the run leaves one
    verdict there and nothing else."""
    home, env_cache, cache = (tmp_path / d for d in ("home", "env", "cache"))
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(env_cache))
    assert main(["run", "--quick", "--figure", "fig5",
                 "--cache-dir", str(cache)]) == 0
    verdict = cache / "validation" / "verdict-quick.json"
    assert f"verdict: {verdict}" in capsys.readouterr().out
    assert list((cache / "validation").iterdir()) == [verdict]
    assert not env_cache.exists()
    assert list(home.iterdir()) == []


def test_report_exits_2_without_a_verdict(tmp_path, capsys):
    code = main(["report", "--verdict", str(tmp_path / "nope.json")])
    assert code == 2
    assert "no verdict found" in capsys.readouterr().out


def test_report_renders_saved_verdict(tmp_path, fig5_expected, capsys):
    _, out, _ = _run(tmp_path, fig5_expected)
    capsys.readouterr()
    code = main(["report", "--verdict", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "paper-fidelity verdict" in captured
    assert "fig5" in captured


def test_experiments_report_delegates_to_validate(tmp_path, monkeypatch, capsys):
    """`python -m repro.experiments report` points at the validate verdict."""
    from repro.experiments.__main__ import main as experiments_main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "empty-cache"))
    code = experiments_main(["report"])
    assert code == 2  # no verdict yet -> validate's "run first" exit code
    assert "python -m repro.validate run" in capsys.readouterr().out
