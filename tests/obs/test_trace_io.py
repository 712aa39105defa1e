"""Schema validation and JSONL round-trip tests for the trace sink."""

import pytest

from repro.obs.records import RECORD_TYPES, TRACE_SCHEMA, validate_record
from repro.obs.trace import iter_trace, read_trace, write_trace


def _rec(rtype, t, **fields):
    """A schema record as the collector emits it: a plain dict."""
    return {"v": TRACE_SCHEMA, "type": rtype, "t": t, **fields}


def _sample_records():
    return [
        _rec("enqueue", 0.5, queue="q", flow=1, seq=0, qlen=1),
        _rec("drop", 1.0, queue="q", flow=1, seq=3, qlen=10, forced=True),
        _rec("mark", 1.2, queue="q", flow=2, seq=4, qlen=9),
        _rec("rtt_sample", 1.3, flow=1, rtt=0.052, cwnd=12.0),
        _rec("signal", 1.3, flow=1, srtt=0.051, signal=0.006, p=0.01),
        _rec("early_response", 1.5, flow=1, cwnd=12.5, cwnd_after=8.125,
             srtt=0.051, signal=0.006, p=0.01),
        _rec("loss", 1.8, flow=2, cwnd=9.0, cwnd_after=4.5),
        _rec("timeout", 2.0, flow=2, cwnd=2.0, cwnd_after=1.0),
        _rec("queue_sample", 2.5, queue="q", qlen=4, bytes=4000, delay=0.0032),
        _rec("cwnd_sample", 3.0, flow=1, cwnd=8.0, ssthresh=6.0, srtt=0.051),
        _rec("link_sample", 3.5, link="l", bytes=123456, pkts=123),
    ]


def test_every_record_type_constructible():
    recs = _sample_records()
    assert {r["type"] for r in recs} == set(RECORD_TYPES)
    for r in recs:
        assert r["v"] == TRACE_SCHEMA
        validate_record(r)  # does not raise


def test_record_rejects_missing_fields():
    with pytest.raises(ValueError, match="missing fields"):
        validate_record(_rec("drop", 1.0, queue="q", flow=1))


def test_record_rejects_unknown_type():
    with pytest.raises(ValueError, match="unknown record type"):
        validate_record(_rec("teleport", 1.0))


def test_validate_rejects_wrong_schema_version():
    rec = _rec("timeout", 1.0, flow=1, cwnd=2.0, cwnd_after=1.0)
    for version in (TRACE_SCHEMA + 1, 1):  # schema 2 only: no reading old traces
        rec["v"] = version
        with pytest.raises(ValueError, match="schema version"):
            validate_record(rec)


def test_jsonl_roundtrip(tmp_path):
    recs = _sample_records()
    path = write_trace(tmp_path / "trace.jsonl", recs)
    assert read_trace(path) == recs


def test_iter_trace_reports_line_numbers(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"v": 2, "type": "timeout", "t": 1.0, "flow": 1, "cwnd": 2, '
                    '"cwnd_after": 1}\nnot json\n')
    it = iter_trace(path)
    next(it)
    with pytest.raises(ValueError, match=":2: bad JSON"):
        next(it)


def test_write_trace_validates_before_commit(tmp_path):
    path = tmp_path / "trace.jsonl"
    with pytest.raises(ValueError):
        write_trace(path, [{"v": TRACE_SCHEMA, "type": "nope", "t": 0.0}])
    assert not path.exists()  # atomic: nothing half-written
