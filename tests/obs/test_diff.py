"""Cross-run diff: scheme/metric deltas, thresholds, CLI exit codes."""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.diff import (
    DEFAULT_DIFF_METRICS,
    diff_runs,
    flagged_deltas,
    format_diff,
)


def _write_entry(run, key, scheme, events=10_000, wall=2.0, drop=0.01,
                 kind="dumbbell"):
    """One cache entry at ``<run>/<key[:2]>/<key>.json``."""
    path = run / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "key": key, "kind": kind, "params": {"scheme": scheme, "seed": 1},
        "payload": {"drop_rate": drop, "norm_queue": 0.4, "utilization": 0.9},
        "meta": {"wall_time": wall, "events": events, "attempts": 1},
    }))


@pytest.fixture
def run_pair(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write_entry(a, "k1", "pert")
    _write_entry(a, "k2", "red")
    _write_entry(a, "k3", "gone")  # only in A
    _write_entry(b, "k1", "pert", events=12_000, drop=0.02)
    _write_entry(b, "k2", "red")
    _write_entry(b, "k4", "new")  # only in B
    return a, b


def test_diff_runs_structure_and_deltas(run_pair):
    a, b = run_pair
    diff = diff_runs(a, b)
    assert diff["jobs"] == [3, 3]
    assert diff["only_a"] == ["gone"]
    assert diff["only_b"] == ["new"]
    assert set(diff["schemes"]) == {"pert", "red"}
    pert = diff["schemes"]["pert"]
    assert set(pert) == set(DEFAULT_DIFF_METRICS)
    assert pert["events_per_sec"]["delta_pct"] == pytest.approx(20.0)
    assert pert["drop_rate"]["delta_pct"] == pytest.approx(100.0)
    assert pert["wall_time"]["delta_pct"] == pytest.approx(0.0)
    # no queue metrics recorded -> null, never a fake zero
    assert pert["queue_delay"]["delta_pct"] is None
    assert diff["schemes"]["red"]["drop_rate"]["delta_pct"] == pytest.approx(0.0)


def test_flagged_deltas_sorted_worst_first(run_pair):
    a, b = run_pair
    over = flagged_deltas(diff_runs(a, b), threshold_pct=10.0)
    assert [(s, m) for s, m, _ in over] == [
        ("pert", "drop_rate"), ("pert", "events_per_sec")]
    assert flagged_deltas(diff_runs(a, b), threshold_pct=500.0) == []


def test_format_diff_marks_threshold_crossings(run_pair):
    a, b = run_pair
    text = format_diff(diff_runs(a, b), threshold_pct=10.0)
    assert "+100.00%!" in text
    assert "schemes only in A: gone" in text
    assert "schemes only in B: new" in text
    assert "2 deltas over the +/-10% threshold" in text
    quiet = format_diff(diff_runs(a, a), threshold_pct=10.0)
    assert "all deltas within" in quiet


def test_diff_excludes_validation_and_counts_corrupt_manifests(run_pair):
    a, b = run_pair
    (a / "validation").mkdir()
    (a / "validation" / "verdict-quick.json").write_text(json.dumps(
        {"tier": "quick", "figures": [{"figure": "fig6", "metrics": []}]}))
    (b / "k1" / "k1x.json").write_text("{torn")
    diff = diff_runs(a, b)
    assert diff["jobs"] == [3, 3]  # a verdict is not a job
    assert diff["warnings"] == [0, 1]
    assert "skipped unreadable files: A=0 B=1" in format_diff(diff)


def test_cli_diff_exit_codes(run_pair, capsys):
    a, b = run_pair
    assert obs_main(["diff", str(a), str(b)]) == 0
    assert obs_main(["diff", str(a), str(b), "--strict"]) == 1
    assert obs_main(["diff", str(a), str(b), "--strict",
                     "--threshold", "500"]) == 0
    out = capsys.readouterr().out
    assert "scheme.metric" in out


def test_delta_pct_zero_baseline():
    # a == 0, b == 0 -> flat; a == 0, b != 0 -> undefined, not infinity
    import tempfile
    from pathlib import Path
    tmp = Path(tempfile.mkdtemp())
    for run, drop in (("a", 0.0), ("b", 0.5)):
        _write_entry(tmp / run, "k", "s", events=0, wall=1.0, drop=drop)
    diff = diff_runs(tmp / "a", tmp / "b")
    assert diff["schemes"]["s"]["events_per_sec"]["delta_pct"] == 0.0
    assert diff["schemes"]["s"]["drop_rate"]["delta_pct"] is None
