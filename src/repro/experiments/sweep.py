"""Parameter-sweep driver shared by the Section 4 figures.

Each of Figures 6-9 is a sweep of one dumbbell parameter with the four
schemes overlaid; this module expands the grid into deterministic job
specs and hands them to :mod:`repro.runner`, which supplies process
fan-out, on-disk result caching, per-job timeouts and crash isolation.
Rows come back flattened (one per scheme x point) ready for
:func:`repro.experiments.report.format_table`, in the same point-major
order as the historical serial loop — the runner guarantees the rows are
identical whether executed with ``workers=0`` (serial debug path),
``workers=N``, or straight from cache.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from ..runner import JobSpec, dumbbell_spec, run_jobs
from .common import DumbbellResult

__all__ = ["SECTION4_SCHEMES", "sweep_dumbbell", "result_row", "failed_row",
           "scheme_jobs", "job_values"]

#: the paper's Section 4 comparison set
SECTION4_SCHEMES = ("pert", "sack-droptail", "sack-red-ecn", "vegas")

#: headline metrics copied into every sweep row
_ROW_FIELDS = (
    "scheme",
    "norm_queue",
    "drop_rate",
    "utilization",
    "jain",
    "mean_queue_pkts",
    "buffer_pkts",
)


def result_row(result, point: Dict) -> Dict:
    """Flatten a run result into a table row, tagged with sweep values.

    *result* may be a :class:`~repro.experiments.common.DumbbellResult`
    or the equivalent JSON dict payload produced by the runner.
    """
    if isinstance(result, DumbbellResult):
        result = result.payload()
    return dict(point, **{name: result[name] for name in _ROW_FIELDS})


def failed_row(scheme: str, point: Dict, error: Optional[str]) -> Dict:
    """Row marking a job that exhausted its retries; metrics are NaN."""
    row = dict(point)
    row.update(
        scheme=scheme,
        norm_queue=math.nan,
        drop_rate=math.nan,
        utilization=math.nan,
        jain=math.nan,
        mean_queue_pkts=math.nan,
        buffer_pkts=0,
        failed=True,
        error=error or "unknown failure",
    )
    return row


def scheme_jobs(kind: str, schemes: Iterable[str], kwargs: Dict) -> List[JobSpec]:
    """One dotted-path *kind* job per scheme, each with *kwargs* — and, as
    in :func:`repro.runner.dumbbell_spec`, the seed (every scenario's
    default is 1) made explicit for cache keys and job records."""
    return [JobSpec(kind, dict(kwargs, scheme=scheme, seed=kwargs.get("seed", 1)))
            for scheme in schemes]


def job_values(results) -> List:
    """The payloads of runner *results*, for figures whose output needs
    every job: the first one that exhausted its retries raises."""
    for res in results:
        if not res.ok:
            raise RuntimeError(
                f"{res.spec.kind} {res.spec.params} failed: {res.error}")
    return [res.value for res in results]


def sweep_dumbbell(
    points: Sequence[Dict],
    schemes: Iterable[str] = SECTION4_SCHEMES,
    *,
    tags: Optional[Sequence[Dict]] = None,
    workers: Optional[int] = None,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress=None,
    fleet=None,
    **base_kwargs,
) -> List[Dict]:
    """Run every scheme at every sweep point.

    *points* are dicts of :func:`repro.experiments.common.run_dumbbell`
    keyword overrides.  *tags* (parallel to *points*) supplies the row
    columns identifying each point; when omitted, the point dict itself
    is used — appropriate when the override keys are the natural column
    names.  :class:`~repro.experiments.scenarios.ScenarioSpec` passes
    explicit tags so that derived run parameters (per-point durations,
    unit conversions) stay out of the result rows.

    Execution goes through :func:`repro.runner.run_jobs`: ``workers``
    selects process fan-out (``0`` = serial in-process fallback, ``None``
    = ``$REPRO_WORKERS``), ``cache`` the on-disk result cache, and
    ``timeout``/``retries`` the per-job failure policy.  A job that still
    fails after its retries yields a NaN-metric row flagged
    ``failed=True`` instead of aborting the sweep.  ``fleet`` is
    forwarded too: a :class:`~repro.fleet.scheduler.Fleet` instance, a
    fleet directory path, or ``None`` to consult ``$REPRO_FLEET`` (unset
    → in-memory).
    Fleeted sweeps are durably journaled — kill the process at any point
    and re-running it (or ``python -m repro.fleet resume <dir>``)
    converges without recomputing finished points.
    """
    if tags is None:
        tags = list(points)
    elif len(tags) != len(points):
        raise ValueError("tags must have one entry per point")
    schemes = tuple(schemes)
    specs = [dumbbell_spec(scheme, **dict(base_kwargs, **point))
             for point in points for scheme in schemes]
    results = run_jobs(
        specs,
        workers=workers,
        cache=cache,
        timeout=timeout,
        retries=retries,
        progress=progress,
        fleet=fleet,
    )
    return [
        result_row(res.value, tag) if res.ok else failed_row(scheme, tag, res.error)
        for res, (tag, scheme) in zip(
            results, [(tag, scheme) for tag in tags for scheme in schemes])
    ]
