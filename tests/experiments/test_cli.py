"""Tests for the ``python -m repro.experiments`` CLI."""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.figures import FIGURES


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in FIGURES:
        assert name in out


def test_registry_covers_every_paper_artifact():
    assert set(FIGURES) == {
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "table1", "fig11", "fig12", "fig12b", "fig13", "fig14",
        # beyond the paper: design-choice ablations and reseeding
        "ablations", "robustness",
    }


def test_fig5_via_cli(capsys):
    assert main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "response curve" in out
    assert "Paper expectation" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])
