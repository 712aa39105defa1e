"""Metric-id helpers shared by the experiment modules' extraction hooks.

Every experiment module exports ``validation_metrics(output)`` — a hook
that flattens whatever its ``run()`` returns into a flat
``{metric_id: float}`` mapping.  The helpers here keep the id grammar
uniform across figures::

    <scheme>.<metric>                      # single-point tables (Table 1)
    <scheme>.<metric>@<key>=<value>        # one sweep axis (Figs. 6-9)
    <scheme>.<metric>@<k1>=<v1>,<k2>=<v2>  # multi-axis points

Ids must be deterministic (they key the bands: the figure modules'
``paper_bands`` and the committed ``expected/*.json`` files), so
numeric tag values go through :func:`fmt_num` — integral floats print
as ints, everything else through ``repr``-shortest form —
and rows are emitted in input order.

Paper claims that relate two schemes ("PERT's queue below DropTail's at
every point") are bands on *derived* ids.  No figure emits them:
:func:`derive` computes them from the measured metrics when a band names
one, so stating such a claim costs one band in the figure's
``paper_bands`` and no other code::

    <a>_vs_<b>.<metric>_ratio@<point>      # a / b at the same point
    <a>_vs_<b>.<metric>_diff@<point>       # a - b at the same point
    <prefix>.mean_<metric>                 # mean over the sweep axis
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

__all__ = ["fmt_num", "metric_id", "rows_to_metrics", "HEADLINE_METRICS",
           "headline_metrics", "derive"]

#: the four metrics every dumbbell-shaped artefact of Section 4 reports
HEADLINE_METRICS = ("norm_queue", "drop_rate", "utilization", "jain")


def fmt_num(value) -> str:
    """Deterministic compact rendering of a tag value for metric ids."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def metric_id(prefix: str, metric: str, tags: Mapping[str, object] = ()) -> str:
    """Build one ``prefix.metric@k=v,...`` id from its parts."""
    mid = f"{prefix}.{metric}" if prefix else metric
    if tags:
        point = ",".join(f"{k}={fmt_num(v)}" for k, v in tags.items())
        mid = f"{mid}@{point}"
    return mid


def rows_to_metrics(
    rows: Iterable[Mapping],
    metrics: Sequence[str],
    keys: Sequence[str] = (),
    prefix_col: str = "scheme",
) -> Dict[str, float]:
    """Flatten table rows into ``{metric_id: value}``.

    *keys* name the row columns identifying the sweep point (they become
    the ``@k=v`` suffix); *prefix_col* names the column whose value
    prefixes each id (usually the scheme).  Rows flagged ``failed`` are
    skipped — their metrics then report as ``missing``, which fails the
    gate with the job error visible in the run report rather than a NaN
    comparison.
    """
    out: Dict[str, float] = {}
    for row in rows:
        if row.get("failed"):
            continue
        prefix = str(row[prefix_col]) if prefix_col else ""
        tags = {k: row[k] for k in keys}
        for m in metrics:
            out[metric_id(prefix, m, tags)] = float(row[m])
    return out


def headline_metrics(rows: Iterable[Mapping],
                     keys: Sequence[str] = ()) -> Dict[str, float]:
    """Flatten sweep rows' :data:`HEADLINE_METRICS`, one id per scheme and point."""
    return rows_to_metrics(rows, HEADLINE_METRICS, keys=keys)


def derive(mid: str, metrics: Mapping[str, float]) -> Optional[float]:
    """Value of metric *mid*: measured, or derived from measured ones.

    Understands the derived-id grammar of the module docstring (a mean
    may be an operand of a ratio or difference).  A ratio's denominator
    is floored at 1e-9, so 0/0 reads 0 ("no worse than") and x/0 reads
    huge rather than raising.  ``None`` when *mid* is neither measured
    nor derivable — the band then reports ``missing``.
    """
    if mid in metrics:
        return metrics[mid]
    head, at, point = mid.partition("@")
    prefix, _, name = head.rpartition(".")
    a, vs, b = prefix.partition("_vs_")
    if vs:
        name, _, kind = name.rpartition("_")
        x = derive(f"{a}.{name}{at}{point}", metrics)
        y = derive(f"{b}.{name}{at}{point}", metrics)
        if x is None or y is None or kind not in ("ratio", "diff"):
            return None
        return x / max(y, 1e-9) if kind == "ratio" else x - y
    if name.startswith("mean_") and not at:
        family = [v for m, v in metrics.items()
                  if m.startswith(f"{prefix}.{name[5:]}@")]
        return sum(family) / len(family) if family else None
    return None
