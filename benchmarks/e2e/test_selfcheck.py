"""Self-check of the benchmark (not collected by the tier-1 suite).

    python -m pytest benchmarks/e2e -q

Everything runs at ``--smoke`` size: declared names equal produced names,
the traced digest equals the untraced one, wrappers are restored even when
the run raises, and ``compare`` returns the three verdicts.
"""

from __future__ import annotations

import copy
import json
import re

import pytest

from benchmarks.e2e import bootstrap

bootstrap()

from benchmarks.e2e import harness  # noqa: E402 - needs bootstrap() first
from benchmarks.e2e.compare import compare_sets  # noqa: E402
from benchmarks.e2e.layers import trace_workload  # noqa: E402
from benchmarks.e2e.tracing import WRAPPED, SpanTracer, _subclass_tree  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

SPEC = harness.SPEC
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = json.loads(harness.EXPECTED.read_text())["seed"]


@pytest.fixture(scope="module")
def runs():
    return {name: harness.run_workload(name, SEED, 1.0, True) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traces():
    return {name: trace_workload(name, SEED, 1.0, True) for name in WORKLOADS}


def test_declared_names_are_well_formed():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert len(e2e) <= 16 and len(layer) <= 128 and 2 <= len(workloads) <= 8
    for name in e2e + layer + workloads:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)
    assert sorted(workloads) == sorted(WORKLOADS)
    assert "setup_s" in e2e
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_run_emits_exactly_the_declared_metrics(runs):
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, report in runs.items():
        assert {k: v["unit"] for k, v in report["metrics"].items()} == declared, name
        assert all(v["value"] > 0 for v in report["metrics"].values()), name
        line = json.loads(harness.contract_line(report, SPEC["end_to_end"]))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


def test_trace_emits_only_declared_metrics_and_covers_them_all(traces):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    produced = {}
    for name, report in traces.items():
        units = {k: v["unit"] for k, v in report["metrics"].items()}
        assert set(units) <= set(declared), (name, set(units) - set(declared))
        produced.update(units)
        line = json.loads(harness.contract_line(report, SPEC["per_layer"]))
        assert set(line["metrics"]) == set(declared)
    assert produced == declared


def test_digests_are_pinned_and_tracing_does_not_change_them(runs, traces):
    pinned = json.loads(harness.EXPECTED.read_text())
    assert set(pinned["full"]) == set(pinned["smoke"]) == set(WORKLOADS)
    for name in WORKLOADS:
        assert runs[name]["failed"] == 0 and traces[name]["failed"] == 0, name
        assert runs[name]["digest"] == traces[name]["digest"] == pinned["smoke"][name]
    for size in ("full", "smoke"):  # cold, replayed and fleeted rows agree
        assert len({pinned[size][n] for n in WORKLOADS if n.startswith("sweep.")}) == 1


def test_layers_separate_the_placements(traces):
    endhost = traces["packet.endhost"]["metrics"]
    router = traces["packet.router"]["metrics"]
    assert endhost["core.on_ack_calls"]["value"] > 0
    assert router["core.on_ack_calls"]["value"] == 0
    assert traces["packet.mixed"]["metrics"]["core.on_ack_calls"]["value"] == 0
    assert traces["packet.mixed"]["metrics"]["traffic.web_objects"]["value"] > 0
    shares = sum(v["value"] for k, v in endhost.items() if k.endswith(".self_share"))
    assert shares >= 0.9
    fleet = traces["sweep.fleet"]["metrics"]
    assert fleet["fleet.store.dedupe_share"]["value"] == 1.0
    assert fleet["fleet.store.replay_points_per_s"]["value"] > 0


def test_wrappers_are_restored_when_the_run_raises():
    def snapshot():
        return [(cls, attr, cls.__dict__[attr])
                for base, attr, _ in WRAPPED for cls in _subclass_tree(base)
                if attr in cls.__dict__]

    before = snapshot()
    with pytest.raises(RuntimeError):
        with SpanTracer().installed():
            assert snapshot() != before
            raise RuntimeError("the run raised")
    assert snapshot() == before


def test_a_broken_invariant_or_digest_fails_the_repetition():
    reps = [{"digest": "a", "problems": [], "jobs": 2, "jobs_failed": 0},
            {"digest": "b", "problems": [], "jobs": 2, "jobs_failed": 1}]
    tally = harness.judge(reps, pinned="a")
    assert tally["attempted"] == 6 and tally["failed"] == 2
    assert any(p.startswith("digest differs from expected.json") for p in reps[1]["problems"])


def test_compare_verdicts(runs):
    a = {"header": runs["fluid.grid"]["header"], "runs": [runs["fluid.grid"]]}
    for report in a["runs"]:  # tight quartiles, so the bound decides
        m = report["metrics"]["work_per_s"]
        m["p25"], m["p75"] = m["value"] * 0.99, m["value"] * 1.01
        s = report["metrics"]["setup_s"]
        s["p25"], s["p75"] = s["value"], s["value"]
    text, code = compare_sets(a, copy.deepcopy(a), SPEC)
    assert code == 0 and "regressed" not in text and " ok" in text

    slower = copy.deepcopy(a)
    for key in ("value", "p25", "p75"):
        slower["runs"][0]["metrics"]["work_per_s"][key] *= 0.7
    text, code = compare_sets(a, slower, SPEC)
    assert code == 1 and "regressed" in text

    noisy = copy.deepcopy(a)
    noisy["runs"][0]["metrics"]["work_per_s"].update(
        p25=a["runs"][0]["metrics"]["work_per_s"]["value"] * 0.5,
        p75=a["runs"][0]["metrics"]["work_per_s"]["value"] * 1.5)
    text, code = compare_sets(a, noisy, SPEC)
    assert code == 0 and "unresolved" in text

    other = copy.deepcopy(a)
    other["header"]["W"] = a["header"]["W"] + 1
    text, code = compare_sets(a, other, SPEC)
    assert code == 2 and "headers differ" in text
