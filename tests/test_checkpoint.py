import errno
import os
import struct

import numpy as np
import pytest

from bct.checkpoint import (
    MAGIC,
    CheckpointError,
    load_subset,
    read_checkpoint,
    save_checkpoint,
)
from bct.layers import build_backbone, build_cnn
from bct.rng import Rng


def test_roundtrip_preserves_values_and_order(tmp_path):
    rng = Rng(41)
    state = {
        "conv1.weight": rng.uniform(2 * 3 * 3 * 3, -1, 1).reshape(2, 3, 3, 3).astype(np.float32),
        "conv1.bias": np.zeros(2, dtype=np.float32),
        "dense.weight": rng.uniform(6, -1, 1).reshape(2, 3).astype(np.float32),
    }
    path = tmp_path / "model.bct1"
    save_checkpoint(state, path)
    back = read_checkpoint(path)
    assert list(back) == list(state)  # writing order preserved
    for name in state:
        np.testing.assert_array_equal(back[name], state[name])
        assert back[name].dtype == np.float32


def test_file_layout_is_exactly_as_documented(tmp_path):
    path = tmp_path / "one.bct1"
    save_checkpoint({"w": np.array([[1.5, -2.0]], dtype=np.float32)}, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack("<I", raw[4:8]) == (1,)
    assert struct.unpack("<I", raw[8:12]) == (1,)  # name length
    assert raw[12:13] == b"w"
    assert struct.unpack("<I", raw[13:17]) == (2,)  # rank
    assert struct.unpack("<2I", raw[17:25]) == (1, 2)
    np.testing.assert_array_equal(
        np.frombuffer(raw[25:33], dtype="<f4"), [1.5, -2.0]
    )
    assert len(raw) == 33


def test_save_is_byte_deterministic(tmp_path):
    m = build_cnn(seed=5)
    p1, p2 = tmp_path / "a.bct1", tmp_path / "b.bct1"
    save_checkpoint(m.state(), p1)
    save_checkpoint(m.state(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_roundtrip_bitwise(tmp_path):
    m = build_cnn(seed=9)
    path = tmp_path / "m.bct1"
    save_checkpoint(m.state(), path)
    m2 = build_cnn(seed=10)
    assert load_subset(m2, path) == list(m2.params)
    for name in m.params:
        np.testing.assert_array_equal(m.params[name].data, m2.params[name].data)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bct1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(path)


def test_truncation_reports_offset(tmp_path):
    good = tmp_path / "good.bct1"
    save_checkpoint({"w": np.ones(4, dtype=np.float32)}, good)
    raw = good.read_bytes()
    cut = tmp_path / "cut.bct1"
    cut.write_bytes(raw[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(cut)
    for at in (2, 6, 10, 15):
        cut.write_bytes(raw[:at])
        with pytest.raises(CheckpointError):
            read_checkpoint(cut)


def test_zero_dim_beside_huge_dims_is_a_checkpoint_error(tmp_path):
    # the value count is 0, so nothing is truncated, but numpy refuses the
    # shape: the product of the other dims overflows its size limit
    path = tmp_path / "dims.bct1"
    dims = (0, 0xFFFFFFFF, 0xFFFFFFFF)
    path.write_bytes(MAGIC + struct.pack("<II", 1, 1) + b"a" + struct.pack("<4I", 3, *dims))
    with pytest.raises(CheckpointError, match="at byte 17"):
        read_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "pad.bct1"
    save_checkpoint({"w": np.ones(2, dtype=np.float32)}, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        read_checkpoint(path)


def test_strict_load_mismatch(tmp_path):
    m = build_cnn(seed=0)
    path = tmp_path / "m.bct1"
    save_checkpoint(m.state(), path)
    other = build_cnn(channels=(4, 8, 16), seed=0)
    with pytest.raises(CheckpointError):
        load_subset(other, path)
    small = tmp_path / "small.bct1"
    save_checkpoint({"conv1.weight": m.params["conv1.weight"].data}, small)
    with pytest.raises(CheckpointError):
        load_subset(m, small)


def test_float64_values_stored_as_float32(tmp_path):
    path = tmp_path / "f64.bct1"
    save_checkpoint({"w": np.array([1 / 3], dtype=np.float64)}, path)
    back = read_checkpoint(path)
    assert back["w"].dtype == np.float32
    assert back["w"][0] == np.float32(1 / 3)


def test_load_subset_backbone_only(tmp_path):
    src = build_backbone(seed=3)
    backbone_state = {n: t.data for n, t in src.params.items() if n.startswith("backbone.")}
    path = tmp_path / "bb.bct1"
    save_checkpoint(backbone_state, path)

    dst = build_backbone(seed=4)
    head_before = {n: t.data.copy() for n, t in dst.params.items() if n.startswith("head.")}
    loaded = load_subset(dst, path, "backbone.")
    assert loaded == [n for n in dst.params if n.startswith("backbone.")]
    for n in loaded:
        np.testing.assert_array_equal(dst.params[n].data, src.params[n].data)
    for n, before in head_before.items():
        np.testing.assert_array_equal(dst.params[n].data, before)

    # a full-model file must be rejected for a backbone-only load
    full = tmp_path / "full.bct1"
    save_checkpoint(src.state(), full)
    with pytest.raises(CheckpointError):
        load_subset(build_backbone(seed=5), full, "backbone.")


def test_failed_load_leaves_the_model_untouched(tmp_path):
    # conv1.* and conv2.* match, conv3.weight does not: nothing may be written
    m = build_cnn(seed=1)
    state = build_cnn(seed=2).state()
    state["conv3.weight"] = np.zeros((32, 16, 1, 1), np.float32)
    path = tmp_path / "bad_shape.bct1"
    save_checkpoint(state, path)
    before = m.state()
    with pytest.raises(CheckpointError, match=r"bad_shape\.bct1: param 'conv3\.weight'"):
        load_subset(m, path, "")
    for name, arr in before.items():
        assert m.params[name].data.tobytes() == arr.tobytes()


def test_save_makes_a_missing_directory_and_leaves_only_the_checkpoint(tmp_path):
    path = tmp_path / "runs" / "seed_0" / "backbone.bct1"
    save_checkpoint({"w": np.ones(3, np.float32)}, path)
    np.testing.assert_array_equal(read_checkpoint(path)["w"], np.ones(3, np.float32))
    assert [p.name for p in path.parent.iterdir()] == ["backbone.bct1"]


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "best.bct1"
    save_checkpoint({"w": np.zeros(2, np.float32)}, path)
    before = path.read_bytes()

    def replace(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(CheckpointError, match=r"best\.bct1: cannot write \(No space left on device\)"):
        save_checkpoint({"w": np.ones(2, np.float32)}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.bct1"]
