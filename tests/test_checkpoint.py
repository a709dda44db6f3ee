import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillardet.checkpoint import (
    ArchConfig,
    fuse_params,
    load_checkpoint,
    load_tensors,
    new_params,
    params_to_tensors,
    save_checkpoint,
    save_tensors,
)
from pillardet.encoder import encode_pillar
from pillardet.errors import ValidationError
from pillardet.head import HEAD_GROUPS
from pillardet.nn import relu, unit_forward
from pillardet.pillars import AUGMENTED_DIM
from pillardet.profiles import DESK, NUSCENES


class TestContainer:
    def test_tensor_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.kernel": rng.normal(size=(2, 3, 3, 3)).astype(np.float32),
            "b.bias": rng.normal(size=5).astype(np.float32),
            "scalarish": np.array([1.5], dtype=np.float32),
        }
        p = tmp_path / "blobs.json"
        save_tensors(p, tensors, {"note": "x"})
        loaded, meta = load_tensors(p)
        assert meta == {"note": "x"}
        assert set(loaded) == set(tensors)
        for k in tensors:
            np.testing.assert_array_equal(loaded[k], tensors[k])

    def test_manifest_records_offsets(self, tmp_path):
        p = tmp_path / "blobs.json"
        save_tensors(p, {"x": np.zeros(3, dtype=np.float32), "y": np.ones(2, dtype=np.float32)}, {})
        manifest = json.loads(p.read_text())
        entries = {e["name"]: e for e in manifest["tensors"]}
        assert entries["x"]["offset"] == 0 and entries["x"]["shape"] == [3]
        assert entries["y"]["offset"] == 12

    def test_corrupted_manifest_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed"):
            load_tensors(p)

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ValidationError, match="manifest"):
            load_tensors(p)

    def test_missing_blob_rejected(self, tmp_path):
        p = tmp_path / "blobs.json"
        save_tensors(p, {"x": np.zeros(3, dtype=np.float32)}, {})
        (tmp_path / "blobs.bin").unlink()
        with pytest.raises(ValidationError, match="blob"):
            load_tensors(p)


class TestCheckpoints:
    def test_train_checkpoint_roundtrip(self, tmp_path):
        arch = DESK.arch()
        params = new_params(arch, mode="random", seed=3)
        p = tmp_path / "ckpt.json"
        save_checkpoint(p, params, arch)
        loaded, loaded_arch, mode = load_checkpoint(p)
        assert mode == "train" and loaded_arch == arch
        assert loaded.backbone.mode == "train"
        np.testing.assert_allclose(
            loaded.backbone.stem.conv3.kernel, params.backbone.stem.conv3.kernel, atol=0
        )
        np.testing.assert_allclose(loaded.encoder.weight, np.asarray(params.encoder.weight, dtype=np.float32))

    def test_fused_checkpoint_roundtrip(self, tmp_path):
        arch = DESK.arch()
        fused = fuse_params(new_params(arch, mode="random", seed=4))
        p = tmp_path / "fused.json"
        save_checkpoint(p, fused, arch)
        loaded, _, mode = load_checkpoint(p)
        assert mode == "fused" and loaded.backbone.mode == "fused"
        np.testing.assert_array_equal(loaded.backbone.stem.kernel, fused.backbone.stem.kernel)

    def test_identity_mode_units_are_passthrough(self):
        params = new_params(DESK.arch(), mode="identity")
        stem = params.backbone.stem
        assert not stem.conv1.kernel.any()
        fused_stage1 = fuse_params(params).backbone.stages[0][0].a
        c = fused_stage1.out_channels
        np.testing.assert_array_equal(
            fused_stage1.kernel[np.arange(c), np.arange(c), 1, 1], np.ones(c, dtype=np.float32)
        )

    def test_identity_checkpoint_is_exact_after_load(self, tmp_path):
        arch = DESK.arch()
        params = new_params(arch, mode="identity")
        p = tmp_path / "ident.json"
        save_checkpoint(p, params, arch)
        loaded, _, _ = load_checkpoint(p)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(arch.encoder_dim, 16, 16)).astype(np.float32)
        assert unit_forward(x, loaded.backbone.stem).tobytes() == relu(x).tobytes()
        aug = rng.normal(size=(7, AUGMENTED_DIM))
        assert encode_pillar(aug, loaded.encoder).f.tobytes() == encode_pillar(aug, params.encoder).f.tobytes()

    def test_missing_tensor_rejected(self, tmp_path):
        arch = DESK.arch()
        params = new_params(arch, mode="random", seed=5)
        from pillardet.checkpoint import params_to_tensors

        tensors = params_to_tensors(params)
        tensors.pop("head.hm.kernel")
        p = tmp_path / "partial.json"
        save_tensors(p, tensors, {"mode": "train", "arch": arch.as_dict()})
        with pytest.raises(ValidationError, match="head.hm.kernel"):
            load_checkpoint(p)

    def test_unknown_mode_rejected(self, tmp_path):
        arch = DESK.arch()
        params = new_params(arch, mode="random", seed=6)
        from pillardet.checkpoint import params_to_tensors

        p = tmp_path / "weird.json"
        save_tensors(p, params_to_tensors(params), {"mode": "quantized", "arch": arch.as_dict()})
        with pytest.raises(ValidationError, match="mode"):
            load_checkpoint(p)

    def test_unused_tensor_rejected(self, tmp_path):
        arch = DESK.arch()
        tensors = params_to_tensors(new_params(arch, mode="random", seed=7))
        short = dict(arch.as_dict(), stage_blocks=[1, 1, 1, 0])
        p = tmp_path / "truncated.json"
        save_tensors(p, tensors, {"mode": "train", "arch": short})
        with pytest.raises(ValidationError, match="backbone.s4.b0"):
            load_checkpoint(p)


class TestHeadTensors:
    def test_head_saved_as_named_groups(self):
        arch = DESK.arch()
        params = new_params(arch, mode="random", seed=8)
        tensors = params_to_tensors(params)
        start = 0
        for _, group, width in HEAD_GROUPS:
            width = width or arch.n_classes
            assert tensors[f"head.{group}.kernel"].shape == (width, arch.neck_channels, 1, 1)
            assert tensors[f"head.{group}.bias"].shape == (width,)
            np.testing.assert_array_equal(tensors[f"head.{group}.kernel"], params.head.kernel[start : start + width])
            start += width
        assert start == params.head.out_channels

    def test_head_roundtrip(self, tmp_path):
        arch = DESK.arch()
        params = new_params(arch, mode="random", seed=9)
        p = tmp_path / "ckpt.json"
        save_checkpoint(p, params, arch)
        loaded, _, _ = load_checkpoint(p)
        np.testing.assert_array_equal(loaded.head.kernel, params.head.kernel)
        np.testing.assert_array_equal(loaded.head.bias, params.head.bias)

    def test_head_group_of_wrong_width_rejected(self, tmp_path):
        # size loses a channel to yaw: the total width still matches the arch
        arch = DESK.arch()
        tensors = params_to_tensors(new_params(arch, mode="random", seed=10))
        for f in ("kernel", "bias"):
            size, yaw = tensors[f"head.size.{f}"], tensors[f"head.yaw.{f}"]
            tensors[f"head.size.{f}"] = size[:2]
            tensors[f"head.yaw.{f}"] = np.concatenate([size[2:], yaw])
        p = tmp_path / "shifted.json"
        save_tensors(p, tensors, {"mode": "train", "arch": arch.as_dict()})
        with pytest.raises(ValidationError, match="head group 'size'"):
            load_checkpoint(p)


class TestArchShapes:
    def test_wide_tensors_under_desk_manifest_rejected(self, tmp_path):
        # stage widths doubled, neck and head as in desk: every head group still fits
        arch = DESK.arch()
        wide = ArchConfig(arch.encoder_dim, arch.stage_blocks, (16, 32, 64, 128), arch.neck_channels, arch.n_classes)
        p = tmp_path / "wide.json"
        save_tensors(p, params_to_tensors(new_params(wide, seed=11)), {"mode": "train", "arch": arch.as_dict()})
        with pytest.raises(ValidationError, match=r"'backbone\.stem\.conv3\.kernel' has shape \(16, 8, 3, 3\)"):
            load_checkpoint(p)

    def test_save_refuses_params_of_another_arch(self, tmp_path):
        # desk params under the nuscenes arch would save, then fail to load
        p = tmp_path / "mixed.json"
        with pytest.raises(ValidationError, match=r"'encoder\.weight' has shape \(8, 11\), expected \(64, 11\)"):
            save_checkpoint(p, new_params(DESK.arch(), seed=15), NUSCENES.arch())
        assert list(tmp_path.iterdir()) == []

    def test_missing_identity_branch_rejected(self, tmp_path):
        arch = DESK.arch()
        tensors = params_to_tensors(new_params(arch, seed=12))
        for f in ("gamma", "beta", "mean", "var"):
            del tensors[f"backbone.s1.b0.a.bn_id.{f}"]
        p = tmp_path / "no_id.json"
        save_tensors(p, tensors, {"mode": "train", "arch": arch.as_dict()})
        with pytest.raises(ValidationError, match=r"missing tensor 'backbone\.s1\.b0\.a\.bn_id\.gamma'"):
            load_checkpoint(p)

    def test_identity_branch_on_a_transition_rejected(self, tmp_path):
        arch = DESK.arch()
        tensors = params_to_tensors(new_params(arch, seed=13))
        for f in ("gamma", "beta", "mean", "var"):
            tensors[f"backbone.t2.bn_id.{f}"] = tensors[f"backbone.t2.bn3.{f}"]
        p = tmp_path / "t2_id.json"
        save_tensors(p, tensors, {"mode": "train", "arch": arch.as_dict()})
        with pytest.raises(ValidationError, match=r"backbone\.t2\.bn_id"):
            load_checkpoint(p)

    def test_arch_record_validates_itself(self):
        arch = DESK.arch()
        for bad in ({"stage_blocks": (1, 1, 1)}, {"stage_channels": (8, 16, 32, 32)}, {"neck_channels": 0},
                    {"n_classes": 0}, {"encoder_dim": 0}):
            with pytest.raises(ValidationError):
                dataclasses.replace(arch, **bad)

    def test_manifest_records_five_arch_keys(self, tmp_path):
        arch = DESK.arch()
        p = tmp_path / "ckpt.json"
        save_checkpoint(p, new_params(arch, seed=14), arch)
        assert set(json.loads(p.read_text())["meta"]["arch"]) == {
            "encoder_dim", "stage_blocks", "stage_channels", "neck_channels", "n_classes",
        }

    def test_fixed_keys_of_older_manifests(self, tmp_path):
        arch = DESK.arch()
        tensors = params_to_tensors(new_params(arch, seed=15))
        old = dict(arch.as_dict(), in_dim=11, bn_eps=1e-5, norm_eps=1e-5)
        p = tmp_path / "old.json"
        save_tensors(p, tensors, {"mode": "train", "arch": old})
        assert load_checkpoint(p)[1] == arch
        save_tensors(p, tensors, {"mode": "train", "arch": dict(old, bn_eps=1e-3)})
        with pytest.raises(ValidationError, match="bn_eps"):
            load_checkpoint(p)


    @pytest.mark.parametrize("key,value", [
        ("encoder_dim", 8.9), ("neck_channels", "16"), ("stage_blocks", [1.0, 1, 1, 1]), ("n_classes", True),
    ])
    def test_wrong_typed_arch_value_rejected(self, tmp_path, key, value):
        arch = DESK.arch()
        p = tmp_path / "typed.json"
        meta = {"mode": "train", "arch": dict(arch.as_dict(), **{key: value})}
        save_tensors(p, params_to_tensors(new_params(arch, seed=16)), meta)
        with pytest.raises(ValidationError, match=key):
            load_checkpoint(p)


small_archs = st.builds(
    lambda encoder_dim, blocks, base, neck, n_classes: ArchConfig(
        encoder_dim, blocks, (base, 2 * base, 4 * base, 8 * base), neck, n_classes
    ),
    st.integers(1, 4),
    st.tuples(*[st.integers(0, 2)] * 4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 3),
)


@settings(derandomize=True, database=None, deadline=None)
@given(small_archs, st.sampled_from(["train", "fused"]), st.integers(0, 2**16))
def test_small_arch_roundtrip_is_bitwise(arch, mode, seed):
    params = new_params(arch, seed=seed)
    if mode == "fused":
        params = fuse_params(params)
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(Path(d) / "ckpt.json", params, arch)
        loaded, loaded_arch, loaded_mode = load_checkpoint(Path(d) / "ckpt.json")
    assert (loaded_arch, loaded_mode) == (arch, mode)
    want, got = params_to_tensors(params), params_to_tensors(loaded)
    assert list(got) == list(want)
    for name, arr in want.items():
        np.testing.assert_array_equal(np.asarray(got[name], dtype="<f4"), np.asarray(arr, dtype="<f4"), err_msg=name)
