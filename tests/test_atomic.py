"""The one atomic file writer behind cache entries, traces and verdicts."""

import pytest

from repro.atomic import atomic_write


def test_a_raising_write_leaves_neither_temp_file_nor_target(tmp_path):
    target = tmp_path / "entry" / "key.json"
    with pytest.raises(TypeError):
        atomic_write(target, "text where bytes belong")  # fh.write raises
    assert list(target.parent.iterdir()) == []
    assert atomic_write(target, b"{}") == target
    assert target.read_bytes() == b"{}"
    assert list(target.parent.iterdir()) == [target]
