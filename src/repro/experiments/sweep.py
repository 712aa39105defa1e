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
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..runner import JobSpec, dumbbell_spec, run_jobs
from ..runner.cache import resolve_cache
from .common import DumbbellResult, run_dumbbell_warm, warm_dumbbell_bytes

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
    default is 1) made explicit for cache keys and manifests."""
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
    warm_start: bool = False,
    checkpoint: Optional[float] = None,
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
    ``failed=True`` instead of aborting the sweep.

    ``warm_start=True`` simulates each scheme's warm-up transient once
    and measures every sweep point from an independent clone of that
    warmed state (see :mod:`repro.snapshot`).  Valid only for sweeps
    whose points share an identical prefix — each point may override
    only ``duration``.  Rows are exactly the rows the cold path
    produces (bit-identical continuations), and they are written into
    the same cache entries, so warm and cold sweeps interoperate.
    ``checkpoint`` is forwarded to :func:`repro.runner.run_jobs` for
    crash-resumable cold jobs; warm-start runs in-process and ignores it.

    ``fleet`` is forwarded to :func:`~repro.runner.run_jobs` too: a
    :class:`~repro.fleet.scheduler.Fleet` instance, a fleet directory
    path, or ``None`` to consult ``$REPRO_FLEET`` (unset → in-memory).
    Fleeted sweeps are durably journaled — kill the process at any point
    and re-running it (or ``python -m repro.fleet resume <dir>``)
    converges without recomputing finished points.  Mutually exclusive
    with ``warm_start`` (the warm path is in-process by construction).
    """
    if tags is None:
        tags = list(points)
    elif len(tags) != len(points):
        raise ValueError("tags must have one entry per point")
    schemes = tuple(schemes)
    if warm_start:
        from ..fleet import resolve_fleet  # local: only this check needs it

        if resolve_fleet(fleet) is not None:
            raise ValueError(
                "warm_start sweeps run in-process and cannot be fleeted; "
                "pass fleet=False (or unset $REPRO_FLEET) for warm starts"
            )
        return _sweep_warm_start(points, schemes, tags, cache, base_kwargs)
    specs, job_tags = [], []
    for point, tag in zip(points, tags):
        for scheme in schemes:
            kwargs = dict(base_kwargs)
            kwargs.update(point)
            specs.append(dumbbell_spec(scheme, **kwargs))
            job_tags.append((scheme, tag))
    results = run_jobs(
        specs,
        workers=workers,
        cache=cache,
        timeout=timeout,
        retries=retries,
        progress=progress,
        checkpoint=checkpoint,
        fleet=fleet,
    )
    rows: List[Dict] = []
    for res, (scheme, tag) in zip(results, job_tags):
        if res.ok:
            rows.append(result_row(res.value, tag))
        else:
            rows.append(failed_row(scheme, tag, res.error))
    return rows


def _sweep_warm_start(
    points: Sequence[Dict],
    schemes: Tuple[str, ...],
    tags: Sequence[Dict],
    cache,
    base_kwargs: Dict,
) -> List[Dict]:
    """Warm-started expansion: per scheme, warm once, fork per duration.

    The warm-up prefix (topology, traffic, seeds, warm-up horizon) must
    be identical across points for the shared warm state to be valid, so
    per-point overrides are restricted to ``duration``.  Cache hits are
    honoured point by point; only missed points cost a measurement, and
    a scheme with no missed points never warms up at all.
    """
    for point in points:
        extra = set(point) - {"duration"}
        if extra:
            raise ValueError(
                "warm_start sweeps share one warm-up per scheme, so points "
                f"may override only 'duration'; got {sorted(extra)}"
            )
    store = resolve_cache(cache)
    rows_by: Dict[Tuple[int, str], Dict] = {}
    misses: Dict[str, List[Tuple[int, Dict, object]]] = {}
    for pi, (point, tag) in enumerate(zip(points, tags)):
        for scheme in schemes:
            kwargs = dict(base_kwargs)
            kwargs.update(point)
            spec = dumbbell_spec(scheme, **kwargs)
            entry = store.get(spec) if store is not None else None
            if entry is not None:
                rows_by[(pi, scheme)] = result_row(entry["payload"], tag)
            else:
                misses.setdefault(scheme, []).append((pi, kwargs, spec))

    for scheme, items in misses.items():
        warm_kwargs = {k: v for k, v in base_kwargs.items() if k != "duration"}
        try:
            body = warm_dumbbell_bytes(scheme, **warm_kwargs)
        except Exception as exc:  # noqa: BLE001 - keep the sweep alive
            error = f"{type(exc).__name__}: {exc}"
            for pi, _kwargs, _spec in items:
                rows_by[(pi, scheme)] = failed_row(scheme, tags[pi], error)
            continue
        for pi, kwargs, spec in items:
            t0 = time.monotonic()
            try:
                result = run_dumbbell_warm(body, kwargs.get("duration", 60.0))
            except Exception as exc:  # noqa: BLE001
                rows_by[(pi, scheme)] = failed_row(
                    scheme, tags[pi], f"{type(exc).__name__}: {exc}"
                )
                continue
            payload = result.payload()
            if store is not None:
                store.put(spec, payload, meta={
                    "events": result.events_processed,
                    "wall_time": time.monotonic() - t0,
                    "attempts": 1,
                    "warm_start": True,
                })
            rows_by[(pi, scheme)] = result_row(result, tags[pi])

    return [rows_by[(pi, scheme)] for pi in range(len(points)) for scheme in schemes]
