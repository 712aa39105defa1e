"""Trace record schema: versioned, validated, JSON-clean event dicts.

Every trace record is a flat dict with three mandatory fields —
``v`` (schema version), ``type`` (one of :data:`RECORD_TYPES`) and
``t`` (simulation time, seconds) — plus per-type payload fields.  The
schema is the contract between the one thing that *emits* records (the
:class:`~repro.obs.collect.Collector`'s instruments) and everything that
*consumes* them (the JSONL sink, ``python -m repro.obs report``, the
experiment results that :func:`select` their series from a run's
records), so bump :data:`TRACE_SCHEMA` whenever a type gains, loses or
re-types a field.

Schema v2 record types and their payload fields:

=================  ====================================================
``enqueue``        ``queue, flow, seq, qlen``
``drop``           ``queue, flow, seq, qlen, forced``
``mark``           ``queue, flow, seq, qlen``
``rtt_sample``     ``flow, rtt, cwnd`` (a tagged flow's valid RTT
                   sample; ``cwnd`` as it stood before the ACK grew it)
``signal``         ``flow, srtt, signal, p`` (PERT's smoothed RTT, its
                   queuing-delay estimate and the law's output for it)
``early_response`` ``flow, cwnd, cwnd_after, srtt, signal, p`` (end-host
                   AQM emulation response; never sampled)
``loss``           ``flow, cwnd, cwnd_after`` (fast retransmit entered)
``timeout``        ``flow, cwnd, cwnd_after`` (RTO fired)
``queue_sample``   ``queue, qlen, bytes, delay`` (+ optional ``aqm``
                   sub-dict with controller state: RED avg/max_p,
                   PI p)
``cwnd_sample``    ``flow, cwnd, ssthresh, srtt``
``link_sample``    ``link, bytes, pkts``
=================  ====================================================

``cwnd`` on the three window cuts is the window before the cut,
``cwnd_after`` the one it left.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

__all__ = ["TRACE_SCHEMA", "RECORD_TYPES", "validate_record", "select"]

#: bump when record types / fields change incompatibly
TRACE_SCHEMA = 2

#: record type -> required payload fields (beyond v/type/t)
RECORD_TYPES: Dict[str, tuple] = {
    "enqueue": ("queue", "flow", "seq", "qlen"),
    "drop": ("queue", "flow", "seq", "qlen", "forced"),
    "mark": ("queue", "flow", "seq", "qlen"),
    "rtt_sample": ("flow", "rtt", "cwnd"),
    "signal": ("flow", "srtt", "signal", "p"),
    "early_response": ("flow", "cwnd", "cwnd_after", "srtt", "signal", "p"),
    "loss": ("flow", "cwnd", "cwnd_after"),
    "timeout": ("flow", "cwnd", "cwnd_after"),
    "queue_sample": ("queue", "qlen", "bytes", "delay"),
    "cwnd_sample": ("flow", "cwnd", "ssthresh", "srtt"),
    "link_sample": ("link", "bytes", "pkts"),
}


def validate_record(rec: dict) -> None:
    """Raise ``ValueError`` if *rec* is not a well-formed schema record."""
    if not isinstance(rec, dict):
        raise ValueError(f"record must be a dict, got {type(rec).__name__}")
    if rec.get("v") != TRACE_SCHEMA:
        raise ValueError(f"unsupported trace schema version {rec.get('v')!r}")
    rtype = rec.get("type")
    required = RECORD_TYPES.get(rtype)
    if required is None:
        raise ValueError(f"unknown record type {rtype!r}")
    if not isinstance(rec.get("t"), (int, float)):
        raise ValueError(f"record {rtype!r} missing numeric time 't'")
    missing = [f for f in required if f not in rec]
    if missing:
        raise ValueError(f"record {rtype!r} missing fields {missing}")


def select(records: Iterable[dict], *rtypes: str, **match) -> List[dict]:
    """The records of type *rtypes* whose fields equal *match*, in stream
    order (``select(records, "loss", "timeout", flow=3)``)."""
    return [r for r in records if r["type"] in rtypes
            and all(r[k] == v for k, v in match.items())]
