"""The "stays gone" / "lives once" guards: deleted code, options and
files that must not come back, and rules that must have one home.

Each case is one guard: a pattern (an extended regular expression, as
``grep -E`` reads it) that must match no line under its paths, a file
that must not exist, or a line that must be written a fixed number of
times.  This module holds every pattern, so it leaves itself out of the
paths it scans; so is build residue (``__pycache__``), which a fresh
checkout does not have.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SELF = Path(__file__).resolve()


def _files(paths, include: str):
    for rel in paths:
        if any(c in rel for c in "*?["):
            found = sorted(ROOT.glob(rel))
        elif (ROOT / rel).is_dir():
            found = sorted((ROOT / rel).rglob(include))
        else:
            found = [ROOT / rel]
        for path in found:
            if (path.is_file() and path.resolve() != _SELF
                    and "__pycache__" not in path.parts):
                yield path


def grep(pattern: str, *paths: str, word: bool = False, fixed: bool = False,
         include: str = "*") -> List[str]:
    """``path:line: text`` for every line under *paths* that matches
    *pattern* (``grep -rn``, with ``-w`` / ``-F`` / ``--include``)."""
    if fixed:
        pattern = re.escape(pattern)
    if word:
        pattern = rf"(?<!\w)(?:{pattern})(?!\w)"
    rx = re.compile(pattern)
    hits = []
    for path in _files(paths, include):
        text = path.read_text(encoding="utf-8", errors="replace")
        for n, line in enumerate(text.splitlines(), 1):
            if rx.search(line):
                hits.append(f"{path.relative_to(ROOT)}:{n}: {line.strip()}")
    return hits


def refuse(hits: List[str], message: str) -> None:
    """Fail with *message* and the offending lines, if there are any."""
    assert not hits, message + "\n" + "\n".join(hits)


def absent(*paths: str, message: str) -> None:
    """Fail with *message* if any of *paths* exists."""
    refuse([p for p in paths if (ROOT / p).exists()], message)


GUARDS: Dict[str, Callable[[], None]] = {}


def guard(name: str):
    def register(fn):
        GUARDS[name] = fn
        return fn
    return register


# ----------------------------------------------------------------------
# the source tree


@guard("no deprecation shim under src/repro")
def _no_deprecation_shim():
    # the warn-once shims were deleted (fluid first, then queues and
    # topology builders); one cannot come back unnoticed
    refuse(grep(r"DeprecationWarning", "src/repro"),
           "src/repro must not emit DeprecationWarning: delete the old path instead")


@guard("one recorder")
def _one_recorder():
    # `obs` is the only way a simulated component is observed and
    # Collector.records the only list anything is recorded into: no
    # per-component trace list, callback list or tracer may come back,
    # and the simulator stays importable without the machinery.
    # (CaseTrace.rtt_trace, extras["rtt_trace"] and fig2's
    # flow_loss_events column live under experiments and stay.)
    message = "record through Collector.records (docs/OBSERVABILITY.md), not a list of your own"
    refuse(grep(r"record_rtt\b|record_signal|signal_trace|rtt_trace|loss_events|drop_listeners|obs_label",
                "src/repro/sim", "src/repro/tcp", "src/repro/core", "src/repro/traffic"),
           message)
    refuse(grep(r"FlowTracer|DropLog|TraceWriter|drop_listeners|record_rtt_flow_index",
                "src/repro"),
           message)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; sys.exit(any(m.startswith('repro.obs') for m in sys.modules))"],
        env=env, cwd=ROOT)
    assert loaded.returncode == 0, "importing repro loaded repro.obs: " + message


@guard("no test-only snapshot or store paths")
def _no_test_only_paths():
    # snapshot forking (and the simulator's stream registry that only
    # it read) was reached by tests alone and is deleted; the fleet
    # dedupes a submit on a validated store read, never on a file
    # merely existing (docs/ARCHITECTURE.md has the reachability
    # table these deletions came from)
    message = "deleted as test-only; see the reachability table in docs/ARCHITECTURE.md"
    refuse(grep(r"reseed_streams|fork_bytes|\b_streams\b", "src/repro"), message)
    refuse(grep(r"def contains", "src/repro/runner", "src/repro/fleet"), message)


@guard("mid-run checkpoints stay gone")
def _no_checkpoints():
    # the job is the one unit of recovery: a failed attempt is retried
    # from its spec and a re-run sweep computes only the points with
    # no cache entry (docs/ARCHITECTURE.md, Recovery); no checkpoint
    # package, knob, scope or collector adoption may come back
    refuse(grep(r"repro\.snapshot|REPRO_CHECKPOINT|checkpoint_scope|active_checkpoint|adopt_collector",
                "src", "tests", "docs", "README.md", "DESIGN.md"),
           "mid-run checkpoints were deleted; recover by job (docs/ARCHITECTURE.md, Recovery)")


@guard("the dead branches stay gone")
def _no_dead_branches():
    # one-way-delay PERT, NewReno, delayed ACKs, the Section 7 knobs,
    # byte-mode queues and transient replay were selected by no
    # figure, band, benchmark workload or example, only by their own
    # tests, and are deleted (docs/ARCHITECTURE.md, Reachability)
    refuse(grep(r"owd_echo|delack|NewRenoSender|escalating_interval|deterministic_threshold|aggressive_increase|byte_mode|capacity_bytes|fast_forward=|segment_dt",
                "src/repro"),
           "an option no run uses is back; see the reachability table in docs/ARCHITECTURE.md")
    absent("src/repro/core/pert_owd.py", "src/repro/tcp/reno.py",
           message="deleted with its scheme")


@guard("the hybrid coupling stays gone")
def _no_hybrid_coupling():
    # the fluid background was checked only against itself and is
    # deleted; the fluid model meets the packet rows as a prediction
    # beside them (fig8's pert_vs_fluid.qdelay_ratio bands), not as
    # load injected into the run
    refuse(grep(r"repro\.hybrid|fig_hybrid|BackgroundLoad|fluid_fast_forward|rate_trajectory|background=",
                "src", "tests", "README.md", "EXPERIMENTS.md", "docs/VALIDATION.md",
                "docs/ARCHITECTURE.md"),
           "the hybrid fluid-packet coupling was deleted; overlay the fluid prediction instead (fig8)")


@guard("paper claims stay in the figure modules")
def _paper_claims_in_figure_modules():
    # each figure module declares the paper's claims about it in
    # paper_bands(tier); the expected files hold golden pins only and
    # update-golden owns them, so neither the seeding tool nor a
    # paper band in an expected file may come back
    absent("tools/seed_paper_bands.py",
           message="tools/seed_paper_bands.py was deleted; declare paper bands in the figure module's paper_bands")
    refuse(grep(r'"source": "paper"', "src/repro/validate/expected/*.json"),
           "an expected file holds a paper band; declare it in the figure module's paper_bands (docs/VALIDATION.md)")


@guard("per-hop counters stay derived")
def _per_hop_counters_derived():
    # the hop counts only decisions (enqueues, drops, marks, bytes in);
    # arrivals, departures, bytes out and the link's transmitted
    # counts follow from the buffer and the packet on the wire, and
    # the counters nothing read are deleted (docs/PERFORMANCE.md,
    # Hot-path anti-patterns)
    refuse(grep(r"busy_time|packets_forwarded|packets_delivered|pkts_received|stats\.(arrivals|departures|bytes_out) [+-]=",
                "src/repro"),
           "a per-hop counter the queue and link state already imply is written again; derive it")


@guard("one instrument per question")
def _one_instrument_per_question():
    # where a packet's host time goes is benchmarks/e2e's `--trace 1`
    # (exact counts, through the engine's dispatch seam), and whether a
    # change moved the results is `validate diff`'s; the sampling
    # profiler and the run-directory diff that answered them a second
    # time are deleted with their flags and knob (docs/OBSERVABILITY.md)
    refuse(grep(r"SamplingProfiler|REPRO_PROFILE|profile_period|diff_runs|flagged_deltas|format_diff|repro\.obs (diff|profile)",
                "src", "tests", "docs", "README.md", ".claude"),
           "a second instrument for an answered question is back; see the table atop docs/OBSERVABILITY.md")


# ----------------------------------------------------------------------
# the fluid kernel


@guard("the lookup rule lives once")
def _lookup_rule_once():
    # _resolve plans the delayed state for the kernel; a second,
    # per-query search in the float kernel must not come back
    refuse(grep(r"ring_interpolator|def interpolate", "src/repro/fluid/dde.py"),
           "the lookup rule lives once")


@guard("the fluid equations live once")
def _fluid_equations_once():
    # one FluidModel writes the window, queue and filter equations and
    # differentiates them for their Jacobian; the per-model modules
    # must not come back.  The equations are one block of source per
    # model shape, which the scalar kernel steps, dynamics() compiles
    # and linearization() differentiates: the window
    # equation's statement is written exactly once (none means it was
    # reworded, and this guard with it).  There is one kernel: no
    # array batch integrator, and no equation written again as ufunc
    # calls in model.py
    absent(*(f"src/repro/fluid/{f}.py"
             for f in ("dynamics", "pert_red", "tcp_red", "pert_pi", "registry")),
           message="a per-model fluid module exists")
    for d in ("def dynamics(", "def linearization("):
        hits = grep(d, "src/repro/fluid", fixed=True, include="*.py")
        assert len(hits) <= 1, f"{d} is written {len(hits)} times:\n" + "\n".join(hits)
    w = "dw = inv_r - bp * w * w_d / r"
    hits = grep(w, "src/repro/fluid", fixed=True, include="*.py")
    assert len(hits) == 1, f"the window equation is written {len(hits)} times:\n" + "\n".join(hits)
    refuse(grep(r"integrate_dde_batch|DdeBatchSolution", "src/repro", word=True),
           "the fluid equations live once")
    refuse(grep(r"np\.(multiply|subtract|divide)", "src/repro/fluid/model.py"),
           "the fluid equations live once")


# ----------------------------------------------------------------------
# the engine and the benchmark


@guard("the inline-departure claim is gone")
def _no_inline_departure_claim():
    # the next-event slot generalises it; a second way to dispatch
    # without the heap must not come back
    refuse(grep(r"advance_if_clear|_ninline", "src", "tests"),
           "the inline-departure claim is gone")


@guard("the legacy micro-suite is gone")
def _no_legacy_micro_suite():
    # its results were absolute rates that no tree reproduces; each
    # of its workloads has an e2e counterpart.  The e2e README keeps
    # one stale mention until that benchmark's next change
    hits = grep(r"benchmarks[./]perf|BENCH_sim|BENCH_history",
                "src", "tests", "benchmarks", "docs", "README.md")
    refuse([h for h in hits if not h.startswith("benchmarks/e2e/README.md:")],
           "the legacy micro-suite is gone")


@pytest.mark.parametrize("name", GUARDS)
def test_guard(name):
    GUARDS[name]()
