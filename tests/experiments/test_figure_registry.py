"""The figure registry: one declaration per figure, read by everything.

``repro.experiments.figures.FIGURES`` is the only list of figures; these
tests hold the things that used to be able to drift apart — the CLI's
list, the validation suite, the expected files — to it, check that every
figure module is a complete record (its paper claims included), and pin
the sweeps that were folded into the shared sweep path against a literal
serial loop.
"""

import inspect

import pytest

from repro.experiments import fig5_response_curve, fig13_fluid
from repro.experiments import fig14_pert_pi, table1_rtts
from repro.experiments.__main__ import main
from repro.experiments.common import run_dumbbell
from repro.experiments.figures import FIGURES, TIERS, figure, tier_kwargs, tiers
from repro.experiments.sweep import result_row
from repro.validate.suite import (EXPECTED_DIR, SUITE, available_figures,
                                  check_figure, figure_bands,
                                  load_suite_expected, paper_bands)

#: figures whose ``run(**kwargs)`` forwards its keywords to another
#: function in the module's namespace (the Section 2 collector, the
#: sweep's ``spec``, the per-scheme runner); their tier kwargs are checked
#: against that function too
FORWARDS = {
    "fig2": "collect_all_cases",
    "fig3": "collect_all_cases",
    "fig4": "collect_all_cases",
    "fig6": "spec",
    "fig7": "spec",
    "fig8": "spec",
    "fig9": "spec",
    "fig11": "run_parking_lot",
    "fig12": "run_dynamics",
    "fig12b": "run_cbr_dynamics",
    "fig13": "run_trajectories",
}


def test_one_list_of_figures(capsys):
    ids = list(FIGURES)
    assert list(SUITE) == ids
    # an expected file holds golden pins only: a figure with none has none
    assert {p.stem for p in EXPECTED_DIR.glob("*.json")} <= set(ids)
    for fid in ids:
        for tier in tiers(fid):
            assert figure_bands(fid, tier), f"{fid} has no {tier} band"
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line and line.split()[0] in FIGURES]
    assert listed == ids


@pytest.mark.parametrize("fid", FIGURES)
def test_figure_module_is_a_complete_record(fid):
    mod = figure(fid)
    assert isinstance(mod.TITLE, str) and mod.TITLE
    assert isinstance(mod.PAPER_EXPECTATION, str) and mod.PAPER_EXPECTATION
    assert mod.QUICK is None or isinstance(mod.QUICK, dict)
    assert isinstance(getattr(mod, "FULL", {}), dict)
    for hook in ("run", "validation_metrics", "tables"):
        assert callable(getattr(mod, hook)), f"{fid} lacks {hook}()"
    assert tiers(fid), f"{fid} participates in no tier"
    assert not hasattr(mod, "main"), "print_figure is the one printer"


@pytest.mark.parametrize("fid", FIGURES)
def test_no_id_is_banded_in_both_homes(fid):
    """A metric id is a paper claim of the module or a golden pin of the
    expected file, never both."""
    golden = load_suite_expected(fid)
    for tier in TIERS:
        claimed = paper_bands(fid, tier)
        assert all(b.source == "paper" for b in claimed.values())
        assert not set(claimed) & set(golden.bands(tier)), (fid, tier)


def test_a_figure_with_no_expected_file_is_judged_by_its_paper_claims(
        tmp_path):
    """fig12b has no golden pin: its 4 full-tier paper checks run from its
    module alone."""
    measured = {"pert.concede_s": 3.0, "pert.reclaim_s": 4.0,
                "pert.drops_squeeze": 0.0, "sack-droptail.drops_squeeze": 50.0}
    fv = check_figure("fig12b", "full", expected_dir=tmp_path,
                      measurements=measured)
    assert fv.error is None and fv.status == "pass"
    assert [(c.metric, c.band.source) for c in fv.checks] == [
        (mid, "paper") for mid in sorted(paper_bands("fig12b", "full"))]
    assert len(fv.checks) == 4


def test_a_figure_with_no_band_in_either_home_is_an_error(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(figure("fig12b"), "paper_bands", lambda tier: {})
    fv = check_figure("fig12b", "full", expected_dir=tmp_path,
                      measurements={"pert.concede_s": 3.0})
    assert fv.failed and not fv.checks
    assert fv.error.startswith("no full band for fig12b")


@pytest.mark.parametrize("fid", FIGURES)
def test_tier_kwargs_are_parameters_of_run(fid):
    """A typo'd tier kwarg fails here, not in a nightly nobody watches."""
    mod = figure(fid)
    params = inspect.signature(mod.run).parameters
    accepted = set(params)
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        assert fid in FORWARDS, (
            f"{fid}.run takes **kwargs: name the function they reach in "
            f"FORWARDS so its tier kwargs stay checkable")
        accepted |= set(inspect.signature(getattr(mod, FORWARDS[fid])).parameters)
    for tier in TIERS:
        unknown = set(tier_kwargs(mod, tier) or ()) - accepted
        assert not unknown, f"{fid} {tier}: run() has no parameter {unknown}"


def test_available_figures_follow_the_declared_tiers():
    assert "fig12b" not in available_figures("quick")
    assert available_figures("full") == list(FIGURES)
    assert available_figures("quick", ["fig12b", "fig5"]) == ["fig5"]
    with pytest.raises(KeyError):
        available_figures("quick", ["fig99"])


@pytest.mark.parametrize("mod", [fig5_response_curve, fig13_fluid])
def test_tables_columns_exist_in_the_rows(mod):
    for title, columns, rows in mod.tables(mod.run(**mod.QUICK)):
        assert title and rows
        for row in rows:
            assert set(columns) <= set(row), (title, columns)


TINY = dict(bandwidth=2e6, n_fwd=2, seed=3, web_sessions=0)


def test_fig14_equals_a_serial_loop():
    """fig14.run is fig7's spec over the PI schemes: same rows, same order."""
    rtts, schemes = [0.02, 0.04], ("pert-pi", "pert")
    serial = []
    for rtt in rtts:
        duration = max(3.0, 300.0 * rtt)
        for scheme in schemes:
            result = run_dumbbell(scheme, rtt=rtt, duration=duration,
                                  warmup=duration * 0.375, **TINY)
            serial.append(result_row(result, {"rtt_ms": rtt * 1e3}))
    rows = fig14_pert_pi.run(rtts=rtts, schemes=schemes, base_duration=3.0,
                             **TINY)
    assert rows == serial
    assert [list(r) for r in rows] == [list(r) for r in serial]


def test_table1_equals_a_serial_loop(monkeypatch):
    """table1.run is a one-point sweep plus the paper's two columns."""
    rtts, schemes = [0.012, 0.024], ("pert", "vegas")
    serial = []
    for scheme in schemes:
        result = run_dumbbell(scheme, rtts=rtts, duration=4.0, warmup=2.0,
                              **TINY)
        row = result_row(result, {})
        paper = table1_rtts.PAPER_TABLE[scheme]
        row.update(paper_Q=paper["Q"], paper_F=paper["F"])
        serial.append(row)
    monkeypatch.setenv("REPRO_WORKERS", "0")
    monkeypatch.setenv("REPRO_CACHE", "0")
    rows = table1_rtts.run(rtts=rtts, schemes=schemes, duration=4.0,
                           warmup=2.0, **TINY)
    assert rows == serial
    assert [list(r) for r in rows] == [list(r) for r in serial]
