"""Journal crash-safety: torn tails, replay, incremental reads."""

from __future__ import annotations

import json

import pytest

from repro.fleet.journal import JOURNAL_SCHEMA, Journal


def _submit(journal, key, **extra):
    fields = dict(key=key, kind="k", params={}, sweep="s", priority=0)
    fields.update(extra)
    with journal.locked():
        return journal.append("submit", **fields)


def test_append_requires_lock(tmp_path):
    journal = Journal(tmp_path)
    with pytest.raises(RuntimeError, match="journal lock"):
        journal.append("submit", key="a", kind="k", params={}, sweep="s",
                       priority=0)


def test_append_validates_ops_and_fields(tmp_path):
    journal = Journal(tmp_path)
    with journal.locked():
        with pytest.raises(ValueError, match="unknown journal op"):
            journal.append("explode", key="a")
        with pytest.raises(ValueError, match="missing fields"):
            journal.append("lease", key="a")


def test_roundtrip_and_incremental_read(tmp_path):
    journal = Journal(tmp_path)
    _submit(journal, "a")
    _submit(journal, "b")
    recs = journal.read_new()
    assert [r["key"] for r in recs] == ["a", "b"]
    assert all(r["v"] == JOURNAL_SCHEMA for r in recs)
    # incremental: nothing new, then exactly the one new record
    assert journal.read_new() == []
    _submit(journal, "c")
    assert [r["key"] for r in journal.read_new()] == ["c"]


def test_replay_skips_truncated_last_line(tmp_path):
    journal = Journal(tmp_path)
    _submit(journal, "a")
    _submit(journal, "b")
    # simulate a writer killed mid-append: drop the tail newline + bytes
    raw = journal.path.read_bytes()
    journal.path.write_bytes(raw[:-10])
    fresh = Journal(tmp_path)
    assert [r["key"] for r in fresh.read_new()] == ["a"]


def test_next_append_repairs_torn_tail(tmp_path):
    journal = Journal(tmp_path)
    _submit(journal, "a")
    raw = journal.path.read_bytes()
    journal.path.write_bytes(raw + b'{"v": 1, "op": "lease", "key": "a"')
    _submit(journal, "b")  # must first terminate the torn line
    fresh = Journal(tmp_path)
    keys = [r["key"] for r in fresh.read_new()]
    assert keys == ["a", "b"]  # fragment skipped, b intact on its own line
    # the file stays line-parseable end to end
    lines = journal.path.read_bytes().decode().splitlines()
    assert len(lines) == 3


def test_buffered_partial_tail_completes_later(tmp_path):
    journal = Journal(tmp_path)
    _submit(journal, "a")
    rec = json.dumps({"v": JOURNAL_SCHEMA, "op": "requeue", "key": "a",
                      "reason": "r", "ts": 0.0})
    half = len(rec) // 2
    reader = Journal(tmp_path)
    assert len(reader.read_new()) == 1
    with open(journal.path, "ab") as fh:
        fh.write(rec[:half].encode())
    assert reader.read_new() == []  # partial line buffered, not dropped
    with open(journal.path, "ab") as fh:
        fh.write((rec[half:] + "\n").encode())
    assert [r["op"] for r in reader.read_new()] == ["requeue"]


def test_read_all_leaves_the_incremental_position(tmp_path):
    journal = Journal(tmp_path)
    _submit(journal, "a")
    _submit(journal, "b")
    assert len(journal.read_new()) == 2
    assert len(journal.read_all()) == 2
    assert journal.read_new() == []
    _submit(journal, "c")
    assert len(journal.read_all()) == 3
    assert [r["key"] for r in journal.read_new()] == ["c"]


def test_unknown_schema_records_are_skipped(tmp_path):
    journal = Journal(tmp_path)
    _submit(journal, "a")
    with open(journal.path, "ab") as fh:
        fh.write(b'{"v": 999, "op": "submit", "key": "z"}\n')
    _submit(journal, "b")
    keys = [r["key"] for r in Journal(tmp_path).read_new()]
    assert keys == ["a", "b"]
