import argparse
import csv
import dataclasses
import json
import math
import re
import shlex
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from pillardet import checkpoint as ckpt
from pillardet.checkpoint import load_checkpoint
from pillardet.cli import BOX_FIELDS, DETECTION_FIELDS, build_parser, main, read_boxes, read_detections, write_boxes
from pillardet.encoder import encode_pillar
from pillardet.geometry import Box3D, rotated_iou_bev
from pillardet.head import HEAD_GROUPS, LOG_SIZE_BAND, save_head_output
from pillardet.losses import render_gaussian_targets
from pillardet.pillars import Pillar, assign_pillars, augment_points
from pillardet.pipeline import head_output_from_targets
from pillardet.pointcloud import PointCloud, crop_to_range, load_cloud, meta_path, save_cloud
from pillardet.profiles import DESK
from test_pipeline import DESK_PROFILE_JSON


@pytest.fixture
def scene(tmp_path):
    out = tmp_path / "scene.bin"
    assert main(["generate", "--profile", "desk", "--seed", "3", "--objects", "3",
                 "--points-per-object", "50", "--background", "200", "--out", str(out)]) == 0
    return out


@pytest.fixture
def train_ckpt(tmp_path):
    p = tmp_path / "ckpt.json"
    assert main(["init", "--profile", "desk", "--seed", "1", "--out", str(p)]) == 0
    return p


class TestGenerate:
    def test_writes_cloud_and_boxes(self, scene):
        cloud = load_cloud(scene)
        assert len(cloud) == 3 * 50 + 200
        boxes = read_boxes(str(scene) + ".boxes.csv")
        assert len(boxes) == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            main(["generate", "--profile", "desk", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestPillarize:
    def test_empty_cloud_ok(self, tmp_path, capsys):
        p = tmp_path / "empty.bin"
        save_cloud(PointCloud(np.zeros((0, 5))), p)
        assert main(["pillarize", "--profile", "desk", "--cloud", str(p)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pillars"] == 0

    def test_count_matches_brute_force(self, scene, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert main(["pillarize", "--profile", "desk", "--cloud", str(scene), "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        cloud = load_cloud(scene)
        groups = set()
        g = DESK.grid
        for row in cloud.data:
            ix = min(int(np.floor((row[0] - g.range.x_min) / g.pillar_x)), g.nx - 1)
            iy = min(int(np.floor((row[1] - g.range.y_min) / g.pillar_y)), g.ny - 1)
            groups.add((iy, ix))
        assert summary["pillars"] == len(groups)
        assert summary["points"] == len(cloud)

    def test_out_of_range_point_reports_index(self, tmp_path, capsys):
        data = np.zeros((2, 5))
        data[1, 0] = 100.0
        p = tmp_path / "far.bin"
        save_cloud(PointCloud(data), p)
        rc = main(["pillarize", "--profile", "desk", "--cloud", str(p)])
        assert rc == 1
        assert "point 1" in capsys.readouterr().err

    def test_per_pillar_without_out_exit_one(self, scene, capsys):
        assert main(["pillarize", "--profile", "desk", "--cloud", str(scene), "--per-pillar"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--out" in err[0]


class TestEncode:
    def test_writes_feature_rows(self, scene, tmp_path):
        out = tmp_path / "feats.csv"
        assert main(["encode", "--profile", "desk", "--cloud", str(scene),
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        cloud = crop_to_range(load_cloud(scene), DESK.grid.range)
        assert len(lines) - 1 == len(assign_pillars(cloud, DESK.grid))
        assert lines[0] == "ix,iy,count,feature_l2,feature_max"

    def test_json_lines_rows_are_the_per_pillar_values_with_int_cells(self, scene, train_ckpt, tmp_path):
        out = tmp_path / "feats.jsonl"
        assert main(["encode", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(train_ckpt),
                     "--format", "json-lines", "--out", str(out)]) == 0
        rows = [json.loads(ln) for ln in out.read_text().splitlines()]
        encoder = load_checkpoint(train_ckpt)[0].encoder
        cloud = crop_to_range(load_cloud(scene), DESK.grid.range)
        want = []
        for p in assign_pillars(cloud, DESK.grid):
            f = encode_pillar(augment_points(cloud, p, DESK.grid), encoder).f
            want.append({"ix": p.ix, "iy": p.iy, "count": p.count,
                         "feature_l2": float(np.linalg.norm(f)), "feature_max": float(f.max())})
        assert rows == want
        assert all(type(r[k]) is int for r in rows for k in ("ix", "iy", "count"))

    @pytest.mark.parametrize("fmt,text", [
        ("csv", "ix,iy,count,feature_l2,feature_max\n"),
        ("text", "ix  iy  count  feature_l2  feature_max\n"),
        ("json-lines", ""),
    ], ids=["csv", "text", "json-lines"])
    def test_zero_rows_keep_the_header(self, tmp_path, fmt, text):
        cloud = tmp_path / "empty.bin"
        save_cloud(PointCloud(np.zeros((0, 5))), cloud)
        out = tmp_path / "feats.txt"
        assert main(["encode", "--profile", "desk", "--cloud", str(cloud), "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == text

    def test_without_a_checkpoint_builds_no_network(self, scene, tmp_path, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("encode built a network")

        for name in ("build_backbone", "build_neck", "build_head"):
            monkeypatch.setattr(ckpt, name, no_network)
        out = tmp_path / "feats.csv"
        assert main(["encode", "--profile", "desk", "--cloud", str(scene), "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ix,iy,count,feature_l2,feature_max" and len(lines) > 1

    def test_checkpoint_with_a_mis_shaped_backbone_tensor_exit_one_naming_it(self, scene, train_ckpt, tmp_path,
                                                                             capsys):
        params, arch, mode = load_checkpoint(train_ckpt)
        tensors = ckpt.params_to_tensors(params)
        name = "backbone.s2.b0.a.conv3.kernel"
        tensors[name] = tensors[name][:, :-1]
        ckpt.save_tensors(train_ckpt, tensors, {"mode": mode, "arch": arch.as_dict()})
        assert main(["encode", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(train_ckpt),
                     "--format", "csv", "--out", str(tmp_path / "feats.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and repr(name) in err


class TestFuse:
    def test_fuse_reports_small_discrepancy(self, train_ckpt, tmp_path, capsys):
        out = tmp_path / "fused.json"
        assert main(["fuse", str(train_ckpt), str(out), "--probes", "4"]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert report["max_relative_discrepancy"] < 1e-4
        from pillardet.checkpoint import load_checkpoint

        _, _, mode = load_checkpoint(out)
        assert mode == "fused"

    def test_identity_checkpoint_fuses_with_zero_discrepancy(self, tmp_path, capsys):
        ckpt = tmp_path / "identity.json"
        assert main(["init", "--profile", "desk", "--mode", "identity", "--out", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["fuse", str(ckpt), str(tmp_path / "fused.json")]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert report["max_relative_discrepancy"] == 0.0

    def test_zero_probes_is_a_usage_error(self, train_ckpt, tmp_path, capsys):
        out = tmp_path / "fused.json"
        assert main(["fuse", str(train_ckpt), str(out), "--probes", "0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--probes" in err[0]
        assert not out.exists()

    def test_corrupted_manifest_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["fuse", str(bad), str(tmp_path / "out.json")]) == 1

    def test_fuses_each_unit_once(self, train_ckpt, tmp_path, monkeypatch):
        from pillardet import backbone

        fused = []
        fuse = backbone.fuse_rep_block
        monkeypatch.setattr(backbone, "fuse_rep_block", lambda unit: fused.append(id(unit)) or fuse(unit))
        assert main(["fuse", str(train_ckpt), str(tmp_path / "fused.json")]) == 0
        assert fused and len(fused) == len(set(fused))

    @pytest.mark.parametrize("worst", [1.0, float("nan")])
    def test_failed_probe_reports_and_writes_no_checkpoint(self, train_ckpt, tmp_path, capsys, monkeypatch, worst):
        monkeypatch.setattr("pillardet.cli.fusion_discrepancy", lambda *args: worst)
        out = tmp_path / "f.json"
        capsys.readouterr()
        assert main(["fuse", str(train_ckpt), str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert json.loads(stdout)["max_relative_discrepancy"] == worst or math.isnan(worst)
        assert len(err.splitlines()) == 1 and err.startswith("invariant violation: ")
        assert sorted(tmp_path.iterdir()) == [train_ckpt.with_suffix(".bin"), train_ckpt]

    def test_fused_input_rejected(self, train_ckpt, tmp_path):
        fused = tmp_path / "fused.json"
        main(["fuse", str(train_ckpt), str(fused)])
        assert main(["fuse", str(fused), str(tmp_path / "again.json")]) == 1


class TestFlops:
    def test_equal_deltas(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["flops", "--profile", "waymo", "--format", "csv", "--out", str(out),
                     "--ratios", "2,2,2,2", "--ratios", "4,2,2,2", "--ratios", "2,4,2,2"]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        total = {r.split(",")[0]: float(r.split(",")[2]) for r in rows}
        d1 = total["4-2-2-2"] - total["2-2-2-2"]
        d2 = total["2-4-2-2"] - total["2-2-2-2"]
        assert d1 == pytest.approx(d2, abs=1e-9)
        assert d1 > 0

    def test_sixteen_block_equality_line(self, capsys):
        assert main(["flops", "--profile", "waymo",
                     "--ratios", "6,6,3,1", "--ratios", "3,4,6,3"]) == 0
        assert "equal-16-block totals: True" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_csv_and_json_lines_stdout_holds_only_records(self, capsys, fmt):
        assert main(["flops", "--profile", "waymo", "--format", fmt,
                     "--ratios", "6,6,3,1", "--ratios", "3,4,6,3"]) == 0
        out, err = capsys.readouterr()
        rows = list(csv.DictReader(StringIO(out))) if fmt == "csv" else [json.loads(ln) for ln in out.splitlines()]
        assert [row["ratio"] for row in rows] == ["6-6-3-1", "3-4-6-3"]
        assert err == "equal-16-block totals: True\n"

    def test_transitions_only_floor(self, tmp_path):
        out = tmp_path / "floor.csv"
        assert main(["flops", "--format", "csv", "--out", str(out), "--ratios", "0,0,0,0"]) == 0
        total = float(out.read_text().strip().splitlines()[1].split(",")[2])
        assert total > 0.0


class TestDetect:
    def test_empty_cloud(self, tmp_path, train_ckpt):
        p = tmp_path / "empty.bin"
        save_cloud(PointCloud(np.zeros((0, 5))), p)
        out = tmp_path / "dets.csv"
        assert main(["detect", "--profile", "desk", "--cloud", str(p),
                     "--checkpoint", str(train_ckpt), "--out", str(out)]) == 0
        assert read_detections(out) == []

    def test_injected_head_fixture(self, scene, train_ckpt, tmp_path):
        boxes = read_boxes(str(scene) + ".boxes.csv")
        targets = render_gaussian_targets(boxes, DESK.grid, DESK.out_stride, DESK.n_classes)
        fixture = tmp_path / "head.npz"
        save_head_output(head_output_from_targets(targets), fixture)
        out = tmp_path / "dets.csv"
        assert main(["detect", "--profile", "desk", "--cloud", str(scene),
                     "--checkpoint", str(train_ckpt), "--inject-head", str(fixture),
                     "--out", str(out)]) == 0
        dets = read_detections(out)
        assert len(dets) == len(boxes)
        cell = DESK.out_stride * DESK.grid.pillar_x
        for b in boxes:
            assert any(
                abs(d.box.cx - b.cx) <= cell / 2 and abs(d.box.cy - b.cy) <= cell / 2 for d in dets
            )

    @pytest.mark.parametrize("shape", [(5, 8, 8), (3, 16, 16), (3, 40, 40)])
    def test_injected_head_that_does_not_fit_the_profile_rejected(self, scene, train_ckpt, tmp_path, capsys,
                                                                  shape):
        fields = {name: np.full((width or shape[0], *shape[1:]), 0.5) for name, _, width in HEAD_GROUPS}
        fixture = tmp_path / "head.npz"
        np.savez(fixture, **fields)
        out = tmp_path / "dets.csv"
        assert main(["detect", "--profile", "desk", "--cloud", str(scene),
                     "--checkpoint", str(train_ckpt), "--inject-head", str(fixture),
                     "--out", str(out)]) == 1
        assert f"heatmap must have shape (3, 8, 8), got {shape}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("names,unknown,missing", [
        (("heatmapp",), ["heatmapp"], []),
        (("heatmapp",), ["heatmapp"], ["heatmap"]),
        ((), [], ["iou"]),
    ], ids=["extra-array", "misspelt-heatmap", "missing-iou"])
    def test_injected_head_holds_exactly_its_six_arrays(self, scene, train_ckpt, tmp_path, capsys, names, unknown,
                                                        missing):
        boxes = read_boxes(str(scene) + ".boxes.csv")
        head = head_output_from_targets(render_gaussian_targets(boxes, DESK.grid, DESK.out_stride, DESK.n_classes))
        fixture = tmp_path / "head.npz"
        save_head_output(head, fixture)
        with np.load(fixture) as data:
            assert sorted(data.files) == sorted(name for name, _, _ in HEAD_GROUPS)
            arrays = {name: data[name] for name in data.files if name not in missing}
        arrays.update({name: head.heatmap for name in names})
        np.savez(fixture, **arrays)
        out = tmp_path / "dets.csv"
        assert main(["detect", "--profile", "desk", "--cloud", str(scene),
                     "--checkpoint", str(train_ckpt), "--inject-head", str(fixture),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {fixture}: head output has unknown keys {unknown} and missing keys {missing}"]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["bare-npy", "truncated-npz"])
    def test_injected_head_that_is_no_whole_npz_exit_one(self, scene, train_ckpt, tmp_path, capsys, kind):
        fixture = tmp_path / "head.npz"
        np.savez(fixture, **{name: np.full((width or 3, 8, 8), 0.5) for name, _, width in HEAD_GROUPS})
        if kind == "bare-npy":
            np.save(fixture.with_suffix(".npy"), np.full((3, 8, 8), 0.5))
            fixture = fixture.with_suffix(".npy")
        else:
            fixture.write_bytes(fixture.read_bytes()[:200])
        assert main(["detect", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(train_ckpt),
                     "--inject-head", str(fixture), "--out", str(tmp_path / "dets.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(fixture) in err[0], err

    @pytest.mark.parametrize("command", ["detect", "encode", "pillarize", "train-step"])
    @pytest.mark.parametrize("column,field", [(3, "reflectance"), (4, "timestamp")])
    def test_point_field_out_of_domain_exit_one_naming_it(self, scene, train_ckpt, tmp_path, capsys, command,
                                                          column, field):
        # at 3e38 the desk net's convs overflowed float32 and detect ended in exit 2
        data = np.fromfile(scene, dtype="<f4").reshape(-1, 5).copy()
        data[0, column] = 3e38
        data.tofile(scene)
        argv = {
            "detect": ["--checkpoint", str(train_ckpt), "--out", str(tmp_path / "dets.csv")],
            "encode": [],
            "pillarize": [],
            "train-step": ["--boxes", str(scene) + ".boxes.csv"],
        }[command]
        assert main([command, "--profile", "desk", "--cloud", str(scene), *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: point record 0 {field} ") and "lies outside" in err[0]

    def test_bitwise_deterministic_output(self, scene, train_ckpt, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["detect", "--profile", "desk", "--cloud", str(scene),
                         "--checkpoint", str(train_ckpt), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_detections_keep_the_header(self, tmp_path, train_ckpt):
        p = tmp_path / "empty.bin"
        save_cloud(PointCloud(np.zeros((0, 5))), p)
        out = tmp_path / "dets.csv"
        assert main(["detect", "--profile", "desk", "--cloud", str(p),
                     "--checkpoint", str(train_ckpt), "--out", str(out)]) == 0
        assert out.read_text() == ",".join(DETECTION_FIELDS) + "\n"

    def test_profile_mismatch_rejected(self, scene, train_ckpt, tmp_path):
        rc = main(["detect", "--profile", "waymo", "--cloud", str(scene),
                   "--checkpoint", str(train_ckpt), "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestLegacyFiles:
    def _detect(self, scene, ckpt, out):
        assert main(["detect", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    def test_manifest_with_the_fixed_arch_keys_detects_the_same_bytes(self, scene, train_ckpt, tmp_path):
        plain = self._detect(scene, train_ckpt, tmp_path / "plain.csv")
        assert len(read_detections(tmp_path / "plain.csv")) > 0
        manifest = json.loads(train_ckpt.read_text())
        manifest["meta"]["arch"].update(in_dim=11, bn_eps=1e-5, norm_eps=1e-5)
        train_ckpt.write_text(json.dumps(manifest))
        assert self._detect(scene, train_ckpt, tmp_path / "legacy.csv") == plain

    @pytest.mark.parametrize("key,value", [("in_dim", 12), ("bn_eps", 1e-3), ("norm_eps", None)])
    def test_fixed_arch_key_at_another_value_exit_one_naming_it(self, scene, train_ckpt, tmp_path, capsys,
                                                                key, value):
        manifest = json.loads(train_ckpt.read_text())
        manifest["meta"]["arch"][key] = value
        train_ckpt.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["detect", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(train_ckpt),
                     "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]

    def test_cloud_metadata_with_a_declared_range_loads_the_same_records(self, scene, capsys):
        argv = ["encode", "--profile", "desk", "--cloud", str(scene), "--format", "csv"]
        capsys.readouterr()
        assert main(argv) == 0
        plain = capsys.readouterr().out
        meta = json.loads(meta_path(scene).read_text())
        meta_path(scene).write_text(json.dumps(dict(meta, declared_range=dataclasses.asdict(DESK.grid.range))))
        assert main(argv) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("kept", [True, False])
    def test_profile_with_or_without_the_fixed_canvas_reduction_pillarizes_the_same(self, scene, tmp_path, capsys,
                                                                                     kept):
        profile = dict(DESK_PROFILE_JSON) if kept else {k: v for k, v in DESK_PROFILE_JSON.items()
                                                         if k != "canvas_reduction"}
        p = tmp_path / "p.json"
        p.write_text(json.dumps(profile))
        capsys.readouterr()
        assert main(["pillarize", "--profile", "desk", "--cloud", str(scene)]) == 0
        builtin = capsys.readouterr().out
        assert main(["pillarize", "--profile", str(p), "--cloud", str(scene)]) == 0
        assert capsys.readouterr().out == builtin

    @pytest.mark.parametrize("value", [1, 4, 2.0, "2", True, None])
    def test_profile_canvas_reduction_other_than_two_exit_one_naming_it(self, scene, tmp_path, capsys, value):
        p = tmp_path / "p.json"
        p.write_text(json.dumps(dict(DESK_PROFILE_JSON, canvas_reduction=value)))
        capsys.readouterr()
        assert main(["pillarize", "--profile", str(p), "--cloud", str(scene)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "canvas_reduction" in err[0]


class TestExtremeHeadOutput:
    """Injected head values no trained network gives: log-sizes far outside the band
    decode to band-edge boxes, and a non-finite value is a bad input naming its cell."""

    def _detect(self, scene, ckpt, tmp_path, group, value):
        boxes = read_boxes(str(scene) + ".boxes.csv")
        targets = render_gaussian_targets(boxes, DESK.grid, DESK.out_stride, DESK.n_classes)
        head = head_output_from_targets(targets)
        fields = {name: getattr(head, name).copy() for name, _, _ in HEAD_GROUPS}
        fields[group] = fields[group].astype(np.result_type(fields[group], value))
        row, col, _ = targets.centers[0]
        fields[group][0, row, col] = value
        fixture = tmp_path / "head.npz"
        np.savez(fixture, **fields)
        out = tmp_path / "dets.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["detect", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(ckpt),
                         "--inject-head", str(fixture), "--out", str(out)])
        return code, out, (row, col), len(boxes)

    @pytest.mark.parametrize("log_size", [700.0, -700.0])
    def test_extreme_log_size_decodes_at_the_band_edge(self, scene, train_ckpt, tmp_path, log_size):
        code, out, _, n_boxes = self._detect(scene, train_ckpt, tmp_path, "size", log_size)
        assert code == 0
        dets = read_detections(out)
        assert len(dets) == n_boxes
        edge = math.exp(LOG_SIZE_BAND[0] if log_size < 0 else LOG_SIZE_BAND[1])
        assert any(d.box.l == pytest.approx(edge, rel=1e-12) for d in dets)
        assert all(math.exp(LOG_SIZE_BAND[0]) * 0.999 < v < math.exp(LOG_SIZE_BAND[1]) * 1.001
                   for d in dets for v in (d.box.l, d.box.w, d.box.h))

    @pytest.mark.parametrize("group", ["heatmap", "iou"])
    def test_complex_group_exit_one_naming_it(self, scene, train_ckpt, tmp_path, capsys, group):
        code, out, _, _ = self._detect(scene, train_ckpt, tmp_path, group, 0.5 + 0.25j)
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: head {group} must hold real numbers, got dtype complex128"]

    @pytest.mark.parametrize("group", ["heatmap", "size"])
    def test_non_finite_value_exit_one_naming_its_cell(self, scene, train_ckpt, tmp_path, capsys, group):
        code, _, (row, col), _ = self._detect(scene, train_ckpt, tmp_path, group, np.nan)
        assert code == 1
        assert f"head {group} channel 0 is non-finite at cell (row {row}, col {col})" in capsys.readouterr().err


    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_offset_to_a_non_finite_centre_exit_one(self, scene, train_ckpt, tmp_path, capsys):
        # the lowest-scoring peak decodes to x = inf; the op fails whatever NMS would do with it
        boxes = read_boxes(str(scene) + ".boxes.csv")
        head = head_output_from_targets(render_gaussian_targets(boxes, DESK.grid, DESK.out_stride, DESK.n_classes))
        fields = {name: getattr(head, name).copy() for name, _, _ in HEAD_GROUPS}
        peaks = np.argwhere(fields["heatmap"] > DESK.score_thresh)
        _, row, col = min(peaks.tolist(), key=lambda c: fields["heatmap"][tuple(c)])
        fields["offset"][0, row, col] = 1.7e308
        fixture = tmp_path / "head.npz"
        np.savez(fixture, **fields)
        out = tmp_path / "dets.csv"
        assert main(["detect", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(train_ckpt),
                     "--inject-head", str(fixture), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: box has non-finite fields: (inf, "), err
        assert not out.exists()


def test_no_pillar_object_is_built_on_the_runtime_path(scene, train_ckpt, tmp_path, monkeypatch):
    """detect, encode and train-step run the grouped array pass; ``Pillar`` is only the per-pillar view."""
    def refuse(self):
        raise AssertionError("a Pillar was built")

    monkeypatch.setattr(Pillar, "__post_init__", refuse)
    for argv in (
        ["detect", "--cloud", str(scene), "--checkpoint", str(train_ckpt), "--out", str(tmp_path / "d.csv")],
        ["encode", "--cloud", str(scene), "--checkpoint", str(train_ckpt), "--out", str(tmp_path / "e.txt")],
        ["train-step", "--cloud", str(scene), "--boxes", str(scene) + ".boxes.csv", "--checkpoint", str(train_ckpt)],
    ):
        assert main([argv[0], "--profile", "desk", *argv[1:]]) == 0


class TestBench:
    def test_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--profile", "desk", "--sizes", "200", "--repeats", "1",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "points,stage,p50,p90,mean"
        stages = [ln.split(",")[1] for ln in lines[1:]]
        assert stages == ["encode", "backbone", "head", "post"]

    def test_no_timed_repeat_is_the_first_run(self, tmp_path, monkeypatch):
        """The first ``run_detect`` of a process carries one-time costs, so bench runs it untimed."""
        import pillardet.cli as cli

        timed = []

        def recording(*args, times=None, **kwargs):
            timed.append(times is not None)
            return run_detect(*args, times=times, **kwargs)

        run_detect = cli.run_detect
        monkeypatch.setattr(cli, "run_detect", recording)
        assert main(["bench", "--profile", "desk", "--sizes", "200,300", "--repeats", "3",
                     "--format", "csv", "--out", str(tmp_path / "bench.csv")]) == 0
        assert timed == [False] + [True] * 6


class TestTrainStep:
    def test_loss_breakdown(self, scene, tmp_path, capsys):
        out = tmp_path / "losses.json"
        assert main(["train-step", "--profile", "desk", "--cloud", str(scene),
                     "--boxes", str(scene) + ".boxes.csv", "--seed", "2", "--out", str(out)]) == 0
        breakdown = json.loads(out.read_text())
        for key in ("cls", "iou_branch", "diou", "reg", "total", "weights"):
            assert key in breakdown
        assert breakdown["total"] >= 0.0
        assert breakdown["weights"] == [1.0, 1.0, 0.25]

    # three desk boxes in three different head cells; rotated_iou_bev of the second with itself is not 1.0
    QUALITY_BOXES = [Box3D(-3.1, 2.2, 0.1, 1.9, 1.1, 1.2, 0.7, 0), Box3D(2.5, -1.3, -0.2, 2.2, 0.9, 1.0, -1.2, 1),
                     Box3D(0.3, 3.9, 0.0, 1.4, 1.3, 1.5, 2.9, 2)]

    def _iou_branch(self, scene, tmp_path, capsys, monkeypatch, head) -> float:
        """train-step's iou_branch on QUALITY_BOXES, with ``head`` as the network's output."""
        boxes = tmp_path / "quality.csv"
        write_boxes(self.QUALITY_BOXES, boxes)
        monkeypatch.setattr("pillardet.cli.network_forward", lambda *args: head)
        capsys.readouterr()
        assert main(["train-step", "--profile", "desk", "--cloud", str(scene), "--boxes", str(boxes)]) == 0
        return json.loads(capsys.readouterr().out)["iou_branch"]

    def test_quality_target_of_a_box_decoded_at_its_ground_truth_is_its_iou_with_itself(
            self, scene, tmp_path, capsys, monkeypatch):
        targets = render_gaussian_targets(self.QUALITY_BOXES, DESK.grid, DESK.out_stride, DESK.n_classes)
        monkeypatch.setattr("pillardet.cli.decode_cells", lambda *args: self.QUALITY_BOXES)
        ious = np.array([rotated_iou_bev(b, b) for b in self.QUALITY_BOXES])
        assert (ious != 1.0).any() and np.all(np.abs(ious - 1.0) < 1e-12)  # within rounding of 1, not always 1.0
        # the rendered head's IoU channel reads +1 at every centre cell
        iou_branch = self._iou_branch(scene, tmp_path, capsys, monkeypatch, head_output_from_targets(targets))
        assert iou_branch == np.abs(1.0 - (2.0 * ious - 1.0)).mean()

    def test_quality_target_of_a_shifted_box_is_the_shifted_box_iou(self, scene, tmp_path, capsys, monkeypatch):
        shift = (0.25, -0.125)  # head cells, in x and y
        targets = render_gaussian_targets(self.QUALITY_BOXES, DESK.grid, DESK.out_stride, DESK.n_classes)
        head = head_output_from_targets(targets)
        head.offset[:, targets.mask] += np.array(shift)[:, None]
        cell = (DESK.out_stride * DESK.grid.pillar_x, DESK.out_stride * DESK.grid.pillar_y)
        ious = np.array([rotated_iou_bev(b._replace(cx=b.cx + shift[0] * cell[0], cy=b.cy + shift[1] * cell[1]), b)
                         for b in self.QUALITY_BOXES])
        assert np.all(ious < 0.9)
        iou_branch = self._iou_branch(scene, tmp_path, capsys, monkeypatch, head)
        assert iou_branch == pytest.approx(np.abs(1.0 - (2.0 * ious - 1.0)).mean(), rel=1e-12)

    @pytest.mark.parametrize("size", [1e6, 1e30, 1e200])
    def test_huge_box_gives_losses_or_one_error_line(self, scene, tmp_path, capsys, size):
        boxes = tmp_path / "boxes.csv"
        write_boxes([Box3D(0.5, 0.5, 0.0, size, size, 1.5, 0.3, 0)], boxes)
        code = main(["train-step", "--profile", "desk", "--cloud", str(scene), "--boxes", str(boxes)])
        out, err = capsys.readouterr()
        if size < 1e100:
            assert code == 0
            assert all(math.isfinite(v) for k, v in json.loads(out).items() if k != "weights")
        else:
            assert code == 1
            assert err == f"error: box 0: Gaussian radius is not finite for l={size:g} w={size:g}\n"


class TestBoxRecords:
    def test_roundtrip(self, tmp_path):
        boxes = [Box3D(1.0, 2.0, 0.3, 2.0, 1.0, 1.5, 0.4, 2)]
        p = tmp_path / "boxes.csv"
        write_boxes(boxes, p)
        assert read_boxes(p) == boxes

    @pytest.mark.parametrize("record", ["1,2,0.3,2,1,1.5,0.4", "1,2,0.3,2,1,1.5,0.4,car", "1,x,0.3,2,1,1.5,0.4,0"],
                             ids=["short", "bad-class", "bad-float"])
    def test_malformed_record_exit_one(self, scene, tmp_path, capsys, record):
        boxes = tmp_path / "boxes.csv"
        boxes.write_text("cx,cy,cz,l,w,h,yaw,class\n" + record + "\n")
        assert main(["train-step", "--profile", "desk", "--cloud", str(scene), "--boxes", str(boxes)]) == 1
        assert "malformed box record" in capsys.readouterr().err


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["flops", "--ratios", "1,x,2,2"],
        ["bench", "--sizes", "5,x"],
        ["bench", "--repeats", "0"],
        ["detect", "--checkpoint", "c.json", "--out", "d.csv"],
    ], ids=["bad-ratio", "bad-size", "zero-repeats", "missing-cloud"])
    def test_one_error_line_exit_one(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["train-step", "generate", "encode", "fuse"])
    def test_file_system_error_is_one_error_line_exit_one(self, scene, train_ckpt, tmp_path, capsys, command):
        missing = tmp_path / "nothere" / "x"
        argv = {
            "train-step": ["train-step", "--profile", "desk", "--cloud", str(scene), "--boxes", str(missing)],
            "generate": ["generate", "--profile", "desk", "--out", str(missing)],
            "encode": ["encode", "--profile", "desk", "--cloud", str(scene), "--format", "csv", "--out", str(missing)],
            "fuse": ["fuse", str(train_ckpt), str(missing)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "No such file or directory" in err[0]

    def test_negative_seed_is_a_usage_error_in_every_seeded_command(self, capsys):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        seeded = sorted(name for name, p in sub.choices.items() if any("--seed" in a.option_strings for a in p._actions))
        assert {"generate", "init", "fuse", "bench", "train-step"} <= set(seeded)
        for command in seeded:
            assert main([command, "--seed", "-1"]) == 1, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and "--seed" in err[0], (command, err)

    @pytest.mark.parametrize("argv", [
        ["detect", "--seed", "1", "--cloud", "c.bin", "--checkpoint", "c.json", "--out", "d.csv"],
        ["fuse", "--profile", "desk", "a.json", "b.json"],
    ], ids=["detect-seed", "fuse-profile"])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unrecognized arguments" in err[0]

    @pytest.mark.parametrize("command", ["generate", "pillarize"])
    def test_profile_with_bad_network_shape_exit_one_at_load(self, scene, tmp_path, capsys, command):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(dict(DESK_PROFILE_JSON, stage_channels=[64, 100, 256, 512])))
        io = ["--out", str(tmp_path / "new.bin")] if command == "generate" else ["--cloud", str(scene)]
        assert main([command, "--profile", str(profile), *io]) == 1
        assert "stage_channels must double" in capsys.readouterr().err
        assert not (tmp_path / "new.bin").exists()

    @pytest.mark.parametrize("key,value", [
        ("max_detections", -45), ("score_thresh", float("nan")), ("loss_weights", [float("nan"), 1.0, 0.25]),
        ("pillar_size", [0.2, 0.2, 7.0]), ("pillar_size", [0.2]), ("pillar_size", []),
        ("range", dict(dataclasses.asdict(DESK.grid.range), w_min=0.0)),
    ])
    @pytest.mark.parametrize("command", ["detect", "train-step"])
    def test_profile_value_that_gives_wrong_results_exit_one(self, scene, train_ckpt, tmp_path, capsys,
                                                             key, value, command):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(dict(DESK_PROFILE_JSON, **{key: value})))
        io = {
            "detect": ["--checkpoint", str(train_ckpt), "--out", str(tmp_path / "d.csv")],
            "train-step": ["--boxes", str(scene) + ".boxes.csv"],
        }[command]
        capsys.readouterr()
        assert main([command, "--profile", str(profile), "--cloud", str(scene), *io]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and key in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("half,grid,head", [(6.8, "68x68", "9x9"), (6.5, "65x65", "9x9")])
    @pytest.mark.parametrize("command", ["generate", "init"])
    def test_grid_the_network_cannot_run_exit_one_at_load(self, tmp_path, capsys, half, grid, head, command):
        # a 68 grid pools to 34 and halves to a 9x9 head (8x) map, onto which the 5x5 16x map
        # cannot be upsampled 2x; a 65 grid cannot be pooled 2x at all
        profile = tmp_path / "profile.json"
        rng = dict(x_min=-half, x_max=half, y_min=-half, y_max=half, z_min=-2.0, z_max=2.0)
        profile.write_text(json.dumps(dict(DESK_PROFILE_JSON, range=rng)))
        out = tmp_path / "out.bin"
        assert main([command, "--profile", str(profile), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'desk-file'" in err[0] and f"grid {grid}" in err[0] and f"head map {head}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        (json.dumps(dict(DESK_PROFILE_JSON, range=dict(DESK_PROFILE_JSON["range"], x_min=-1e308, x_max=1e308))),
         "int64 cell keys"),
        (json.dumps(dict(DESK_PROFILE_JSON, pillar_size=[1e-280, 0.2])), "int64 cell keys"),
        (json.dumps(DESK_PROFILE_JSON).replace('"score_thresh": 0.3', '"score_thresh": 0.3, "score_thresh": 0.9'),
         "key 'score_thresh' twice"),
    ], ids=["range-past-float", "pillar-past-int64", "repeated-key"])
    @pytest.mark.parametrize("command", ["generate", "detect", "encode", "pillarize", "train-step"])
    def test_profile_rejected_at_load_by_every_command(self, scene, train_ckpt, tmp_path, capsys, text, message,
                                                       command):
        profile = tmp_path / "profile.json"
        profile.write_text(text)
        io = {
            "generate": ["--out", str(tmp_path / "new.bin")],
            "detect": ["--cloud", str(scene), "--checkpoint", str(train_ckpt), "--out", str(tmp_path / "d.csv")],
            "encode": ["--cloud", str(scene)],
            "pillarize": ["--cloud", str(scene)],
            "train-step": ["--cloud", str(scene), "--boxes", str(scene) + ".boxes.csv"],
        }[command]
        capsys.readouterr()
        assert main([command, "--profile", str(profile), *io]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {profile}: ") and message in err and err.count("\n") == 1

    def test_grid_that_fits_int64_but_not_memory_is_out_of_memory(self, scene, train_ckpt, tmp_path, capsys):
        # 1.28e9 x 1.28e9 cells: int64 keys hold them, numpy refuses the canvas before it allocates
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(dict(DESK_PROFILE_JSON, pillar_size=[1e-8, 1e-8])))
        capsys.readouterr()
        assert main(["detect", "--profile", str(profile), "--cloud", str(scene), "--checkpoint", str(train_ckpt),
                     "--out", str(tmp_path / "d.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: out of memory: array is too big") and err.count("\n") == 1

    def test_out_of_memory_is_one_error_line_exit_one(self, scene, train_ckpt, tmp_path, capsys, monkeypatch):
        import pillardet.pipeline as pipeline

        def refuse(*args, **kwargs):  # what numpy raises for a canvas that cannot be allocated
            raise MemoryError("Unable to allocate 458. GiB for an array with shape (1, 8, 124000, 124000)")

        monkeypatch.setattr(pipeline, "place_pillars", refuse)
        capsys.readouterr()
        assert main(["detect", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(train_ckpt),
                     "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: Unable to allocate 458. GiB")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("command", ["generate", "bench", "init"])
    def test_size_numpy_cannot_allocate_is_one_error_line_exit_one(self, tmp_path, capsys, command):
        # numpy refuses each of these sizes before it allocates anything
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(dict(DESK_PROFILE_JSON, encoder_dim=2**59)))
        argv = {
            "generate": ["generate", "--background", str(2**62), "--out", str(tmp_path / "scene.bin")],
            "bench": ["bench", "--sizes", str(2**62)],
            "init": ["init", "--profile", str(profile), "--out", str(tmp_path / "ckpt.json")],
        }[command]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: out of memory: array is too big") and err.count("\n") == 1

    def test_truncated_stage_blocks_manifest_exit_one(self, scene, train_ckpt, tmp_path, capsys):
        manifest = json.loads(train_ckpt.read_text())
        manifest["meta"]["arch"]["stage_blocks"] = [1, 1, 1]
        train_ckpt.write_text(json.dumps(manifest))
        assert main(["detect", "--profile", "desk", "--cloud", str(scene),
                     "--checkpoint", str(train_ckpt), "--out", str(tmp_path / "d.csv")]) == 1
        assert "stage_blocks" in capsys.readouterr().err


def _first_tensor(key, value):
    def edit(manifest):
        manifest["tensors"][0][key] = value
        return manifest
    return edit


MALFORMED_JSON_FILES = [
    pytest.param("manifest", lambda m: [1], "manifest", id="manifest-list"),
    pytest.param("manifest", lambda m: dict(m, meta=5), "meta", id="manifest-meta-int"),
    pytest.param("manifest", lambda m: dict(m, blob=5), "blob", id="manifest-blob-int"),
    pytest.param("manifest", lambda m: dict(m, version="x"), "version", id="manifest-version-str"),
    pytest.param("manifest", lambda m: dict(m, version=None), "version", id="manifest-version-null"),
    pytest.param("manifest", _first_tensor("shape", [10**30]), "tensor 0 shape", id="manifest-shape-huge"),
    pytest.param("manifest", _first_tensor("offset", 10**30), "tensor 0 offset", id="manifest-offset-huge"),
    pytest.param("manifest", _first_tensor("offset", 1), "tensor 0 offset", id="manifest-offset-1"),
    *[pytest.param("manifest", _first_tensor("dtype", d), "tensor 0 dtype", id=f"manifest-dtype-{d}")
      for d in (">f4", "<i4", "<f8")],
    pytest.param("manifest", lambda m: dict(m, tensors=m["tensors"][:1] + m["tensors"]), "tensor 1 name",
                 id="manifest-repeated-entry"),
    pytest.param("manifest", _first_tensor("shape", [2.0]), "tensor 0 shape", id="manifest-shape-float"),
    pytest.param("profile", lambda p: [1, 2], "profile", id="profile-list"),
    pytest.param("profile", lambda p: "desk", "profile", id="profile-str"),
    *[pytest.param("profile", lambda p, k=key, v=value: dict(p, **{k: v}), key, id=f"profile-{key}-huge")
      for key, value in (("score_thresh", 10**400), ("nms_iou", 10**400), ("pillar_size", [0.2, 10**400]),
                         ("loss_weights", [1.0, 10**400, 0.25]), ("encoder_dim", 10**30))],
    pytest.param("cloud", lambda c: [], "cloud metadata", id="cloud-metadata-list"),
    pytest.param("profile", lambda p: dict(p, x=1), "['x']", id="profile-added-key"),
    pytest.param("profile", lambda p: dict(p, range=dict(p["range"], x=1)), "['x']", id="profile-range-added-key"),
    pytest.param("manifest", lambda m: dict(m, x=1), "['x']", id="manifest-added-key"),
    pytest.param("manifest", lambda m: dict(m, meta=dict(m["meta"], x=1)), "['x']", id="manifest-meta-added-key"),
    pytest.param("manifest", lambda m: dict(m, meta=dict(m["meta"], arch=dict(m["meta"]["arch"], x=1))), "['x']",
                 id="manifest-arch-added-key"),
    pytest.param("manifest", _first_tensor("x", 1), "['x']", id="manifest-tensor-added-key"),
    pytest.param("cloud", lambda c: dict(c, x=1), "['x']", id="cloud-metadata-added-key"),
]


@pytest.mark.parametrize("kind,edit,key", MALFORMED_JSON_FILES)
def test_malformed_json_file_is_one_error_line_naming_file_and_key(scene, train_ckpt, tmp_path, capsys,
                                                                   kind, edit, key):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(DESK_PROFILE_JSON))
    path = {"manifest": train_ckpt, "profile": profile, "cloud": meta_path(scene)}[kind]
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    out = tmp_path / "dets.csv"
    capsys.readouterr()
    assert main(["detect", "--profile", str(profile), "--cloud", str(scene), "--checkpoint", str(train_ckpt),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0] and key in err[0], err
    assert not out.exists()


def test_bench_times_the_fused_network(monkeypatch):
    import pillardet.cli as cli

    modes = []
    monkeypatch.setattr(cli, "run_detect", lambda cloud, params, profile, times=None: modes.append(params.mode))
    assert main(["bench", "--profile", "desk", "--sizes", "50", "--repeats", "2"]) == 0
    assert modes == ["fused", "fused", "fused"]  # the untimed warm-up, then the two timed repeats


def test_detect_runs_the_fused_network(scene, train_ckpt, tmp_path, monkeypatch):
    import pillardet.cli as cli

    modes = []
    monkeypatch.setattr(cli, "run_detect", lambda cloud, params, profile, inject_head: modes.append(params.mode) or [])
    assert main(["detect", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(train_ckpt),
                 "--out", str(tmp_path / "dets.csv")]) == 0
    assert modes == ["fused"]


def test_detect_on_a_train_checkpoint_writes_the_bytes_of_its_fused_checkpoint(scene, train_ckpt, tmp_path):
    fused = tmp_path / "fused.json"
    assert main(["fuse", str(train_ckpt), str(fused)]) == 0
    outs = [tmp_path / "train.csv", tmp_path / "fused.csv"]
    for ckpt, out in zip((train_ckpt, fused), outs):
        assert main(["detect", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
    assert len(read_detections(outs[0])) > 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_readme_file_formats_list_the_csv_headers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    headers = dict(re.findall(r"^- \*\*(\w+)\*\*: CSV\s+`([^`]+)`", section, flags=re.MULTILINE))
    assert headers == {"Boxes": ",".join(BOX_FIELDS), "Detections": ",".join(DETECTION_FIELDS)}


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0] for ln in block.splitlines() if ln.startswith("pillardet ")]
    assert lines
    for ln in lines:
        build_parser().parse_args(shlex.split(ln)[1:])
