"""Unpicklable-attachment diagnostics and checkpoint-runtime plumbing."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.snapshot import (
    FORMAT_VERSION,
    CheckpointSlot,
    SnapshotError,
    active_checkpoint,
    capture_bytes,
    checkpoint_scope,
    load,
    resolve_checkpoint_interval,
    sim_summary,
)


# ----------------------------------------------------------------------
# clear errors for things that cannot be checkpointed
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_scheduled_lambda_is_named_with_a_hint(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SnapshotError, match=r"closures/lambdas"):
            capture_bytes(sim)

    def test_scheduled_closure_is_named_with_a_hint(self):
        sim = Simulator(seed=1)
        box = []

        def local_callback():
            box.append(sim.now)

        sim.schedule(1.0, local_callback)
        with pytest.raises(SnapshotError, match=r"local_callback.*closures"):
            capture_bytes(sim)

    def test_error_reports_the_event_time(self):
        sim = Simulator(seed=1)
        sim.schedule(2.5, lambda: None)
        with pytest.raises(SnapshotError, match=r"t=2\.5"):
            capture_bytes(sim)

    def test_cancelled_unpicklable_events_do_not_block_capture(self):
        """Cancelled entries are purged at capture, so even a cancelled
        *lambda* cannot block a checkpoint — only live entries count."""
        from repro.snapshot import restore_bytes

        sim = Simulator(seed=1)
        fired = sim.schedule(1.0, sim.stream, "later")  # picklable
        bad = sim.schedule(2.0, lambda: None)
        bad.cancel()
        body = capture_bytes(sim)  # must not raise
        assert fired is not None
        # the original event list still physically holds both entries
        assert sim_summary(sim)["heap_len"] == 2

        sim2, _ = restore_bytes(body)
        assert sim_summary(sim2)["heap_len"] == 1  # purged copy
        assert sim2.pending() == 1
        sim2.run()
        assert sim2.events_processed == 1

    def test_open_file_handle_in_state_is_diagnosed(self, tmp_path):
        sim = Simulator(seed=1)
        with open(tmp_path / "t.jsonl", "w") as handle:
            with pytest.raises(SnapshotError,
                               match=r"state object \(dict\) is not picklable"):
                capture_bytes(sim, {"sink": handle})

    def test_attached_profiler_fails_fast(self):
        sim = Simulator(seed=1)
        sim.profiler = object()
        with pytest.raises(SnapshotError, match="profiler"):
            capture_bytes(sim)

    def test_capture_from_inside_run_is_refused(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, capture_bytes, sim)
        with pytest.raises(SnapshotError, match="inside run"):
            sim.run()


# ----------------------------------------------------------------------
# interval resolution and the scope/slot plumbing
# ----------------------------------------------------------------------
class TestRuntime:
    def test_interval_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", "9.0")
        assert resolve_checkpoint_interval(2.5) == 2.5

    def test_interval_defers_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", "3.5")
        assert resolve_checkpoint_interval(None) == 3.5

    @pytest.mark.parametrize("env", ["", "0", "off", "false", "no", "OFF"])
    def test_interval_env_off_values(self, monkeypatch, env):
        monkeypatch.setenv("REPRO_CHECKPOINT", env)
        assert resolve_checkpoint_interval(None) is None

    def test_interval_unset_env_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
        assert resolve_checkpoint_interval(None) is None

    @pytest.mark.parametrize("value", [0, -1, 0.0])
    def test_interval_nonpositive_disables(self, value):
        assert resolve_checkpoint_interval(value) is None

    @pytest.mark.parametrize("env, checkpoint, knob", [
        ("abc", None, "REPRO_CHECKPOINT"),
        ("nan", None, "REPRO_CHECKPOINT"),   # was: silently off
        ("inf", None, "REPRO_CHECKPOINT"),   # was: a slot that never saves
        ("-inf", None, "REPRO_CHECKPOINT"),
        ("", float("nan"), "checkpoint"),
        ("", float("inf"), "checkpoint"),
    ])
    def test_interval_bad_value_names_the_knob(self, monkeypatch, env,
                                               checkpoint, knob):
        monkeypatch.setenv("REPRO_CHECKPOINT", env)
        with pytest.raises(ValueError, match=f"^{knob} must be a finite number"):
            resolve_checkpoint_interval(checkpoint)

    def test_scope_installs_and_restores_the_slot(self, tmp_path):
        assert active_checkpoint() is None
        with checkpoint_scope(tmp_path / "a.ckpt", 1.0) as slot:
            assert isinstance(slot, CheckpointSlot)
            assert active_checkpoint() is slot
            with checkpoint_scope(None, None) as inner:
                assert inner is None
                assert active_checkpoint() is None
            assert active_checkpoint() is slot
        assert active_checkpoint() is None

    def test_resume_discards_a_corrupt_checkpoint(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        slot = CheckpointSlot(path, 1.0)
        slot.save(Simulator(seed=1), {"k": 1})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))

        fresh = CheckpointSlot(path, 1.0)
        assert fresh.resume() is None  # resume is an optimization...
        assert not path.exists()  # ...and the bad file is gone
        assert fresh.summary() is None

    def test_resume_refuses_a_version_1_checkpoint(self, tmp_path):
        """A checkpoint an older package left beside a half-finished job
        (law state still flat on queues and senders) is refused by its
        header, never unpickled into half-shaped objects."""
        path = tmp_path / "old.ckpt"
        CheckpointSlot(path, 1.0).save(Simulator(seed=1), {"k": 1})
        magic, header, body = path.read_bytes().split(b"\n", 2)
        current = b'"format": %d' % FORMAT_VERSION
        assert current in header
        path.write_bytes(b"\n".join(
            (magic, header.replace(current, b'"format": 1'), body)))
        with pytest.raises(SnapshotError, match="format 1 is not supported"):
            load(path)

        fresh = CheckpointSlot(path, 1.0)
        assert fresh.resume() is None  # the job reruns from scratch
        assert not path.exists()

    def test_save_chains_parent_lineage(self, tmp_path):
        from repro.snapshot import inspect as snap_inspect

        path = tmp_path / "chain.ckpt"
        slot = CheckpointSlot(path, 1.0)
        sim = Simulator(seed=1)
        sim.schedule(1.0, sim.stream, "x")

        first = slot.save(sim, None)
        assert snap_inspect(path)["parent"] is None
        sim.run(until=2.0)
        second = slot.save(sim, None)
        assert snap_inspect(path)["parent"] == first.id
        assert slot.summary() == {
            "interval": 1.0, "saves": 2, "resumed": False,
            "last_id": second.id,
        }

    def test_save_detaches_and_reattaches_the_profiler(self, tmp_path):
        sim = Simulator(seed=1)
        marker = object()
        sim.profiler = marker
        slot = CheckpointSlot(tmp_path / "p.ckpt", 1.0)
        slot.save(sim, None)
        assert sim.profiler is marker
        restored = slot.resume()
        assert restored is not None
        assert restored[0].profiler is None
