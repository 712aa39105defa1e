"""Snapshot file format: header, checksums, corruption, versioning, CLI."""

from __future__ import annotations

import json

import pytest

import repro
from repro.sim.engine import Simulator
from repro.snapshot import FORMAT_VERSION, SnapshotError, load, save, verify
from repro.snapshot import __main__ as cli
from repro.snapshot.format import MAGIC, read_header


def _small_sim(seed=3):
    sim = Simulator(seed=seed)
    acc = []
    for i in range(5):
        sim.schedule(0.1 * (i + 1), acc.append, i)
    sim.run(until=0.25)
    return sim


def _save(tmp_path, **kwargs):
    sim = _small_sim()
    path = tmp_path / "snap.ckpt"
    info = save(path, sim, {"note": "hello"}, **kwargs)
    return path, info


class TestFormat:
    def test_save_writes_magic_and_json_header(self, tmp_path):
        path, info = _save(tmp_path)
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        header_line = raw[len(MAGIC):].split(b"\n", 1)[0]
        header = json.loads(header_line)
        assert header["format"] == FORMAT_VERSION
        assert header["repro_version"] == repro.__version__
        assert header["id"] == info.id
        assert header["body_bytes"] == info.body_bytes

    def test_header_summarizes_sim(self, tmp_path):
        path, _ = _save(tmp_path, label="unit")
        header = read_header(path)
        assert header["label"] == "unit"
        assert header["sim"]["now"] == 0.25
        assert header["sim"]["pending"] == 3

    def test_load_round_trips_state(self, tmp_path):
        path, _ = _save(tmp_path)
        restored = load(path)
        assert restored.state == {"note": "hello"}
        assert restored.sim.now == 0.25
        assert restored.id == read_header(path)["id"]

    def test_verify_passes_on_good_file(self, tmp_path):
        path, _ = _save(tmp_path)
        out = verify(path)
        assert out["verified"]["pending"] == 3

    def test_flipped_body_byte_fails_checksum(self, tmp_path):
        path, _ = _save(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            load(path)

    def test_truncated_body_fails(self, tmp_path):
        path, _ = _save(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(SnapshotError):
            load(path)

    def test_bad_magic_fails(self, tmp_path):
        path = tmp_path / "not-a-snap.ckpt"
        path.write_bytes(b"GARBAGE\n{}\n")
        with pytest.raises(SnapshotError, match="magic|not a snapshot"):
            load(path)

    def test_version_mismatch_refused_by_default(self, tmp_path, monkeypatch):
        path, _ = _save(tmp_path)
        monkeypatch.setattr(repro, "__version__", "999.0")
        with pytest.raises(SnapshotError, match="999.0"):
            load(path)
        restored = load(path, allow_version_mismatch=True)
        assert restored.sim.now == 0.25

    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            load(tmp_path / "nope.ckpt")


class TestCli:
    def test_inspect(self, tmp_path, capsys):
        path, info = _save(tmp_path)
        assert cli.main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert info.id in out
        assert "pending" in out or "events" in out

    def test_inspect_json(self, tmp_path, capsys):
        path, info = _save(tmp_path)
        assert cli.main(["inspect", str(path), "--json"]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["id"] == info.id

    def test_verify_ok_and_corrupt(self, tmp_path, capsys):
        path, _ = _save(tmp_path)
        assert cli.main(["verify", str(path)]) == 0
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cli.main(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
