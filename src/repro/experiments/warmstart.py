"""Warm-started duration sweep: :mod:`repro.snapshot` fidelity as a figure.

Not a paper artefact.  One runner job per scheme: a simulated warm-up,
then every duration measured from an independent clone of the warmed
state.  The continuations are bit-identical to cold runs, so their rows
are pinned as goldens like any other figure's — a snapshot that drops
or reorders state moves them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .sweep import sweep_dumbbell

__all__ = ["run", "validation_metrics", "tables"]

TITLE = "Warm-started duration sweep (snapshot fidelity)"

PAPER_EXPECTATION = (
    "Not a paper artefact: rows measured from clones of one warmed state "
    "equal the cold runs' bit for bit."
)

QUICK = dict(durations=(8.0, 12.0), bandwidth=6e6, n_fwd=5, warmup=4.0)


def run(
    durations: Sequence[float] = (30.0, 45.0, 60.0),
    bandwidth: float = 10e6,
    n_fwd: int = 8,
    warmup: float = 15.0,
    seed: int = 1,
    schemes: Sequence[str] = ("pert", "sack-droptail"),
) -> List[Dict]:
    """Each scheme warmed once, then measured out to every duration."""
    return sweep_dumbbell(
        [{"duration": d} for d in durations], schemes=schemes,
        warm_start=True,
        bandwidth=bandwidth, n_fwd=n_fwd, warmup=warmup, seed=seed,
    )


def validation_metrics(rows: List[Dict]) -> Dict[str, float]:
    """Flatten :func:`run` output for ``repro.validate`` (per-duration rows)."""
    from ..validate.extract import headline_metrics

    return headline_metrics(rows, keys=("duration",))


def tables(rows: List[Dict]):
    """Report tables for :func:`repro.experiments.figures.print_figure`."""
    return [(TITLE, ("duration", "scheme", "norm_queue", "drop_rate",
                     "utilization", "jain"), rows)]


if __name__ == "__main__":
    from .figures import print_figure
    print_figure()
