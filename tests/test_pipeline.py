import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pillardet.backbone as backbone
import pillardet.head as head_module
import pillardet.nn as nn
import pillardet.pipeline as pipeline
from pillardet.backbone import BackboneConfig, backbone_forward, count_macs, neck_fuse
from pillardet.checkpoint import fuse_params, new_params
from pillardet.encoder import EncoderParams, encode_pillar, encoder_backward
from pillardet.errors import ValidationError
from pillardet.geometry import Box3D, rotated_iou_bev
from pillardet.head import (
    HEAD_GROUPS,
    HEATMAP_CLAMP,
    LOG_SIZE_BAND,
    HeadOutput,
    decode,
    head_forward,
    head_map_hw,
    nms,
    rectify_detections,
)
from pillardet.losses import render_gaussian_targets
from pillardet.nn import BNParams, batchnorm, conv2d, maxpool2, unit_forward, upsample_nearest2
from pillardet.pillars import AUGMENTED_DIM, assign_pillars, augment_points, pillar_segments, scatter
from pillardet.pipeline import (
    StageTimes,
    encode_pillars,
    fusion_discrepancy,
    head_output_from_targets,
    network_forward,
    pool_pillars,
    run_detect,
)
from pillardet.pointcloud import PointCloud, SceneSpec, crop_to_range, generate_scene
from pillardet.profiles import DESK, NUSCENES, WAYMO, load_profile


def desk_scene(seed=0, n_objects=3):
    spec = SceneSpec(
        range=DESK.grid.range,
        n_objects=n_objects,
        points_per_object=60,
        n_background=150,
        length_range=(1.2, 2.4),
        width_range=(0.8, 1.4),
        height_range=(0.8, 1.6),
        n_classes=DESK.n_classes,
    )
    return generate_scene(spec, seed)


DESK_PROFILE_JSON = {
    "name": "desk-file",
    "range": dataclasses.asdict(DESK.grid.range),
    "pillar_size": [0.2, 0.2],
    "n_classes": 3,
    "encoder_dim": 8,
    "stage_blocks": [1, 1, 1, 1],
    "stage_channels": [8, 16, 32, 64],
    "neck_channels": 16,
    "canvas_reduction": 2,
    "score_thresh": 0.3,
    "max_detections": 50,
    "nms_iou": [0.5, 0.5, 0.5],
    "nms_class_agnostic": False,
    "rectify_alpha": 0.5,
    "loss_weights": [1.0, 1.0, 0.25],
}


class TestProfiles:
    def test_waymo_constants(self):
        assert (WAYMO.grid.range.x_min, WAYMO.grid.range.x_max) == (-75.2, 75.2)
        assert (WAYMO.grid.range.z_min, WAYMO.grid.range.z_max) == (-2.0, 4.0)
        assert WAYMO.grid.pillar_x == 0.2
        assert WAYMO.nms_iou == (0.8, 0.55, 0.55)
        assert WAYMO.rectify_alpha == (0.68, 0.71, 0.65)
        assert not WAYMO.nms_class_agnostic
        assert WAYMO.stage_blocks == (6, 6, 3, 1)
        assert WAYMO.stage_channels == (64, 128, 256, 512)
        assert (WAYMO.loss_weights.cls, WAYMO.loss_weights.iou, WAYMO.loss_weights.reg) == (1.0, 1.0, 0.25)

    def test_nuscenes_constants(self):
        assert (NUSCENES.grid.range.x_min, NUSCENES.grid.range.x_max) == (-54.0, 54.0)
        assert (NUSCENES.grid.range.z_min, NUSCENES.grid.range.z_max) == (-5.0, 3.0)
        assert NUSCENES.grid.pillar_x == 0.15
        assert NUSCENES.nms_class_agnostic
        assert NUSCENES.score_thresh == 0.2
        assert NUSCENES.rectify_alpha == 0.5

    @pytest.mark.parametrize("name,grid,head", [
        ("waymo", 752, 94),
        ("nuscenes", 720, 90),
        ("desk", 64, 8),
        ("perfbench/wide_dense_profile.json", 192, 24),
    ])
    def test_builtin_and_repo_profiles_load_with_runnable_grids(self, name, grid, head):
        from pathlib import Path

        from pillardet.head import head_map_hw

        repo_file = Path(__file__).resolve().parents[1] / name
        prof = load_profile(str(repo_file) if name.endswith(".json") else name)
        assert (prof.grid.ny, prof.grid.nx) == (grid, grid)
        assert head_map_hw(prof.grid, prof.out_stride) == (head, head)

    def test_builtin_lookup_and_unknown(self):
        assert load_profile("desk") is DESK
        from pillardet.errors import ValidationError

        with pytest.raises(ValidationError, match="unknown profile"):
            load_profile("kitti")

    def test_profile_file_roundtrip(self, tmp_path):
        import json

        cfg = {
            "name": "custom",
            "range": dataclasses.asdict(DESK.grid.range),
            "pillar_size": [0.2, 0.2],
            "n_classes": 3,
            "encoder_dim": 8,
            "stage_blocks": [1, 1, 1, 1],
            "stage_channels": [8, 16, 32, 64],
            "neck_channels": 16,
            "canvas_reduction": 2,
            "score_thresh": 0.3,
            "max_detections": 50,
            "nms_iou": 0.5,
            "nms_class_agnostic": False,
            "rectify_alpha": 0.5,
            "loss_weights": [1.0, 1.0, 0.25],
        }
        p = tmp_path / "profile.json"
        p.write_text(json.dumps(cfg))
        prof = load_profile(str(p))
        assert prof.name == "custom" and prof.out_stride == 8

    def test_unknown_profile_key_rejected(self, tmp_path):
        import json

        from pillardet.errors import ValidationError

        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"name": "x", "bogus": 1}))
        with pytest.raises(ValidationError, match="unknown profile keys|missing keys"):
            load_profile(str(p))

    @pytest.mark.parametrize("key,value,ok", [
        ("nms_class_agnostic", "false", False),
        ("canvas_reduction", 2.7, False),
        ("max_detections", True, False),
        ("score_thresh", 0, True),
        ("nms_iou", 1, True),
    ])
    def test_profile_values_checked_against_declared_types(self, tmp_path, key, value, ok):
        import json

        from pillardet.errors import ValidationError

        p = tmp_path / "profile.json"
        p.write_text(json.dumps(dict(DESK_PROFILE_JSON, **{key: value})))
        if ok:
            assert load_profile(str(p)).name == "desk-file"
        else:
            with pytest.raises(ValidationError, match=key):
                load_profile(str(p))


    @pytest.mark.parametrize("key,value,ok", [
        ("stage_blocks", [1.9, 1, 1, 1], False),
        ("stage_channels", [8, 16, 32, "64"], False),
        ("pillar_size", [0.2, "0.2"], False),
        ("loss_weights", [1.0, 1.0, None], False),
        ("nms_iou", [0.5, False, 0.5], False),
        ("range", dict(dataclasses.asdict(DESK.grid.range), x_min="-6.4"), False),
        ("loss_weights", [1, 1, 0], True),
        ("range", dict(dataclasses.asdict(DESK.grid.range), z_min=-2, z_max=2), True),
    ])
    def test_list_elements_and_range_values_checked(self, tmp_path, key, value, ok):
        import json

        from pillardet.errors import ValidationError

        p = tmp_path / "profile.json"
        p.write_text(json.dumps(dict(DESK_PROFILE_JSON, **{key: value})))
        if ok:
            assert load_profile(str(p)).name == "desk-file"
        else:
            with pytest.raises(ValidationError, match="x_min" if key == "range" else key):
                load_profile(str(p))

    @pytest.mark.parametrize("key,value,ok", [
        ("nms_iou", -0.5, False),
        ("nms_iou", 1.5, False),
        ("nms_iou", [0.5, 1.2, 0.5], False),
        ("rectify_alpha", 2.0, False),
        ("rectify_alpha", [0.5, -0.1, 0.5], False),
        ("nms_iou", [0.0, 1.0, 0.5], True),
        ("rectify_alpha", 1, True),
        ("rectify_alpha", 0.0, True),
    ])
    def test_thresholds_and_exponents_lie_in_unit_interval(self, tmp_path, key, value, ok):
        import json

        from pillardet.errors import ValidationError

        p = tmp_path / "profile.json"
        p.write_text(json.dumps(dict(DESK_PROFILE_JSON, **{key: value})))
        if ok:
            assert load_profile(str(p)).name == "desk-file"
        else:
            with pytest.raises(ValidationError, match=f"{key} values must lie in \\[0, 1\\]"):
                load_profile(str(p))

    @pytest.mark.parametrize("key,value,ok", [
        ("max_detections", -45, False),
        ("max_detections", 0, False),
        ("max_detections", 1, True),
        ("score_thresh", float("nan"), False),
        ("score_thresh", float("inf"), False),
        ("score_thresh", -0.1, False),
        ("score_thresh", 1.5, False),
        ("score_thresh", 1, False),
        ("score_thresh", 0.0, True),
        ("loss_weights", [float("nan"), 1.0, 0.25], False),
        ("loss_weights", [1.0, float("inf"), 0.25], False),
        ("loss_weights", [1.0, 1.0, float("-inf")], False),
    ])
    def test_values_that_would_silently_give_wrong_results_rejected(self, tmp_path, key, value, ok):
        import json

        from pillardet.errors import ValidationError

        p = tmp_path / "profile.json"
        # json writes the NaN and Infinity literals that json.loads reads back
        p.write_text(json.dumps(dict(DESK_PROFILE_JSON, **{key: value})))
        if ok:
            assert load_profile(str(p)).name == "desk-file"
        else:
            with pytest.raises(ValidationError, match=key):
                load_profile(str(p))

    def test_profile_load_fuzz(self, tmp_path):
        """Every slot of a desk profile (each key, list element and range bound) set to each of a list of
        edge values, then seeded draws that set two or three slots at once: each profile loads or raises
        ValidationError, never another exception."""
        import copy
        import json

        values = [0, -1, 1e-300, -1e-300, 1e300, -1e300, 2**31, 2**62, 2**63, -(2**63), math.nan, math.inf,
                  -math.inf, 3.4e38, 1e-45, True, None, [], {}, "x"]
        slots, leaves = [], []  # leaves: the slots no other slot lies inside
        for key, value in DESK_PROFILE_JSON.items():
            parts = range(len(value)) if isinstance(value, list) else value if isinstance(value, dict) else ()
            inner = [(key, part) for part in parts]
            slots += [(key,), *inner]
            leaves += inner or [(key,)]
        rng = np.random.default_rng(33)
        cases = [[(slot, v)] for slot in slots for v in values]
        for _ in range(200):
            picked = rng.choice(len(leaves), rng.integers(2, 4), replace=False)
            cases.append([(leaves[i], values[rng.integers(len(values))]) for i in picked])
        p = tmp_path / "profile.json"
        faults, loaded = [], 0
        for case in cases:
            d = copy.deepcopy(DESK_PROFILE_JSON)
            for (*path, last), v in case:
                target = d
                for key in path:
                    target = target[key]
                target[last] = copy.deepcopy(v)
            p.write_text(json.dumps(d))
            try:
                load_profile(str(p))
                loaded += 1
            except ValidationError:
                pass
            except Exception as e:  # noqa: BLE001 - any other exception is the fault this test finds
                faults.append(f"{case}: {type(e).__name__}: {e}")
        assert not faults, faults[:5]
        assert len(cases) == 940 and 0 < loaded < len(cases)

    def test_file_profiles_in_the_repo_load(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        assert load_profile(str(root / "perfbench" / "wide_dense_profile.json")).name == "wide-dense"


class TestDetectPipeline:
    def test_empty_cloud_empty_detections(self):
        params = new_params(DESK.arch(), mode="random", seed=0)
        dets = run_detect(PointCloud(np.zeros((0, 5))), params, DESK)
        assert dets == []

    def test_runs_end_to_end_on_scene(self):
        cloud, _ = desk_scene()
        params = new_params(DESK.arch(), mode="random", seed=1)
        times = StageTimes()
        dets = run_detect(cloud, params, DESK, times=times)
        assert isinstance(dets, list)
        assert times.encode > 0.0 and times.backbone > 0.0

    def test_deterministic(self):
        cloud, _ = desk_scene(seed=5)
        params = new_params(DESK.arch(), mode="random", seed=2)
        a = run_detect(cloud, params, DESK)
        b = run_detect(cloud, params, DESK)
        assert a == b

    def test_injected_targets_decode_to_planted_boxes(self):
        cloud, boxes = desk_scene(seed=7)
        params = new_params(DESK.arch(), mode="identity")
        targets = render_gaussian_targets(boxes, DESK.grid, DESK.out_stride, DESK.n_classes)
        dets = run_detect(cloud, params, DESK, inject_head=head_output_from_targets(targets))
        assert len(dets) == len(boxes)
        matched = set()
        cell = DESK.out_stride * DESK.grid.pillar_x
        for b in boxes:
            found = None
            for i, d in enumerate(dets):
                if i in matched or d.class_id != b.class_id:
                    continue
                if math.hypot(d.box.cx - b.cx, d.box.cy - b.cy) <= cell / 2:
                    found = i
                    break
            assert found is not None, f"no detection near box {b}"
            matched.add(found)
            d = dets[found]
            for got, want in ((d.box.l, b.l), (d.box.w, b.w), (d.box.h, b.h)):
                assert math.isclose(got, want, rel_tol=1e-6)
            assert abs(d.box.yaw - b.yaw) < 1e-6 or abs(abs(d.box.yaw - b.yaw) - 2 * math.pi) < 1e-6

    def test_injected_head_skips_front_end(self, monkeypatch):
        cloud, boxes = desk_scene(seed=7)
        params = new_params(DESK.arch(), mode="identity")
        head = head_output_from_targets(render_gaussian_targets(boxes, DESK.grid, DESK.out_stride, DESK.n_classes))

        def refuse(*args, **kwargs):
            raise AssertionError("front end ran on the injected-head path")

        for name in ("crop_to_range", "pillar_segments", "augment", "encode_pillar", "pool_pillars"):
            monkeypatch.setattr(pipeline, name, refuse)
        dets = run_detect(cloud, params, DESK, inject_head=head)
        want = decode(head, DESK.grid, DESK.out_stride, k=DESK.max_detections, score_thresh=DESK.score_thresh)
        want = nms(rectify_detections(want, DESK.rectify_alpha), DESK.nms_iou, class_agnostic=DESK.nms_class_agnostic)
        assert dets and dets == want


def crowd_head(profile, seed, n_objects):
    """The head rendered from a seeded scene of ``n_objects`` car-sized boxes, as the
    crowded-post benchmark renders it."""
    r = profile.grid.range
    spec = SceneSpec(range=r, n_objects=n_objects, points_per_object=5, n_background=0, length_range=(2.0, 5.0),
                     width_range=(1.2, 2.4), height_range=(1.2, min(2.2, (r.z_max - r.z_min) * 0.8)),
                     n_classes=profile.n_classes)
    _, boxes = generate_scene(spec, seed)
    return head_output_from_targets(render_gaussian_targets(boxes, profile.grid, profile.out_stride, profile.n_classes))


def noise_head(profile, seed):
    """A random head with random peaks in a 16 x 16 patch, each box 12-20 m long and
    about aligned with the x axis on 1.6 m cells, so NMS suppresses some."""
    rng = np.random.default_rng(seed)
    n, (h, w) = profile.n_classes, head_map_hw(profile.grid, profile.out_stride)
    heatmap = np.full((n, h, w), HEATMAP_CLAMP)
    heatmap[:, 20:36, 30:46] = rng.uniform(HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP, (n, 16, 16))
    return HeadOutput(
        heatmap=heatmap, offset=rng.uniform(-0.5, 0.5, (2, h, w)),
        z=rng.normal(0.0, 1.0, (1, h, w)), size=rng.uniform(2.5, 3.0, (3, h, w)),
        yaw=np.stack([rng.normal(0.0, 0.1, (h, w)), np.ones((h, w))]),
        iou=rng.uniform(-1.0, 1.0, (1, h, w)),
    )


def background_head(profile):
    n, (h, w) = profile.n_classes, head_map_hw(profile.grid, profile.out_stride)
    fields = {name: np.zeros((width or n, h, w)) for name, _, width in HEAD_GROUPS}
    fields["heatmap"] += HEATMAP_CLAMP
    return HeadOutput(**fields)


POST_SCENES = {
    "nuscenes-crowd-1000": lambda: (NUSCENES, crowd_head(NUSCENES, 1000, 150)),
    "nuscenes-crowd-1001": lambda: (NUSCENES, crowd_head(NUSCENES, 1001, 150)),
    "waymo-per-class-crowd": lambda: (WAYMO, crowd_head(WAYMO, 7, 150)),
    "waymo-noise": lambda: (WAYMO, noise_head(WAYMO, 3)),
    "nuscenes-background": lambda: (NUSCENES, background_head(NUSCENES)),
}


def detection_bits(dets):
    return [(d.class_id, *(float(v).hex() for v in (*d.box[:7], d.cls_score, d.iou_score, d.final_score))) for d in dets]


class TestArrayPostProcessing:
    """``run_detect`` post-processes on arrays and builds one box per candidate and a
    detection only for what NMS keeps; the list functions perfbench's tracer calls must
    give the same bytes from the same ordered IoU calls, which perfbench counts as
    ``head.nms_pairs``."""

    @pytest.mark.parametrize("class_agnostic", [False, True])
    @pytest.mark.parametrize("scene", sorted(POST_SCENES))
    def test_run_detect_equals_the_list_path(self, monkeypatch, scene, class_agnostic):
        profile, head = POST_SCENES[scene]()
        profile = dataclasses.replace(profile, nms_class_agnostic=class_agnostic)
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return rotated_iou_bev(a, b)

        monkeypatch.setattr(head_module, "rotated_iou_bev", counting)
        params = new_params(profile.arch(), mode="identity")
        got = run_detect(PointCloud(np.zeros((0, 5))), params, profile, inject_head=head)
        got_calls, calls[:] = calls[:], []
        cands = decode(head, profile.grid, profile.out_stride, k=profile.max_detections,
                       score_thresh=profile.score_thresh)
        want = nms(rectify_detections(cands, profile.rectify_alpha), profile.nms_iou, class_agnostic=class_agnostic)
        assert detection_bits(got) == detection_bits(want)
        assert got_calls == calls
        if scene.endswith("background"):
            assert cands == [] and calls == []
        else:
            assert calls and got
        if scene.endswith("noise"):
            assert len(want) < len(cands)  # NMS suppresses

    @pytest.mark.parametrize("class_agnostic", [False, True])
    @pytest.mark.parametrize("scene", sorted(s for s in POST_SCENES if not s.endswith("background")))
    def test_every_candidate_is_kept_or_clipped(self, monkeypatch, scene, class_agnostic):
        """What makes ``select_detections`` build every candidate's box up front at no extra
        cost: NMS would build each one anyway, as a kept box or as an IoU call's argument."""
        profile, head = POST_SCENES[scene]()
        clipped = []

        def counting(a, b):
            clipped.extend((id(a), id(b)))
            return rotated_iou_bev(a, b)

        monkeypatch.setattr(head_module, "rotated_iou_bev", counting)
        cands = rectify_detections(decode(head, profile.grid, profile.out_stride, k=profile.max_detections,
                                          score_thresh=profile.score_thresh), profile.rectify_alpha)
        kept = nms(cands, profile.nms_iou, class_agnostic=class_agnostic)
        built = {id(d.box) for d in kept} | set(clipped)
        assert cands and all(id(d.box) in built for d in cands)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("offset", [1.7e308, -1.7e308])
    def test_non_finite_candidate_fails_with_the_box_error(self, offset):
        """A huge offset at the lowest-ranked peak decodes to a non-finite centre: the op
        fails with Box3D's message for that candidate, whatever NMS would do with it."""
        profile = NUSCENES
        head = crowd_head(profile, 1000, 150)
        fields = {name: getattr(head, name).copy() for name, _, _ in HEAD_GROUPS}
        cls, row, col = np.unravel_index(np.argmin(np.where(fields["heatmap"] > 0.5, fields["heatmap"], 2.0)),
                                         fields["heatmap"].shape)
        fields["offset"][0, row, col] = offset
        fields["offset"][1, row, col] = 0.25
        g = profile.grid
        cx = g.range.x_min + (col + 0.5 + offset) * (profile.out_stride * g.pillar_x)
        cy = g.range.y_min + (row + 0.5 + 0.25) * (profile.out_stride * g.pillar_y)
        l, w, h = np.exp(np.clip(fields["size"][:, row, col], *LOG_SIZE_BAND)).tolist()
        vals = (float(cx), float(cy), float(fields["z"][0, row, col]), l, w, h,
                math.atan2(fields["yaw"][0, row, col], fields["yaw"][1, row, col]))
        assert not math.isfinite(vals[0])
        params = new_params(profile.arch(), mode="identity")
        with pytest.raises(ValidationError) as excinfo:
            run_detect(PointCloud(np.zeros((0, 5))), params, profile, inject_head=HeadOutput(**fields))
        assert str(excinfo.value) == f"box has non-finite fields: {vals}"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_first_non_finite_candidate_in_rank_order_is_named(self):
        head = crowd_head(NUSCENES, 1001, 150)
        fields = {name: getattr(head, name).copy() for name, _, _ in HEAD_GROUPS}
        peaks = sorted(zip(*np.nonzero(fields["heatmap"] > 0.5)), key=lambda c: -fields["heatmap"][c])
        for (_, row, col), sign in zip((peaks[3], peaks[-1], peaks[1]), (1.0, -1.0, 1.0)):
            fields["offset"][0, row, col] = sign * 1.7e308
        _, row, col = peaks[1]
        params = new_params(NUSCENES.arch(), mode="identity")
        with pytest.raises(ValidationError, match=r"box has non-finite fields: \(inf, ") as excinfo:
            run_detect(PointCloud(np.zeros((0, 5))), params, NUSCENES, inject_head=HeadOutput(**fields))
        assert f"{float(fields['z'][0, row, col])!r}" in str(excinfo.value)


def test_no_box_is_built_one_at_a_time_on_the_post_path(monkeypatch):
    """``run_detect`` makes its boxes in bulk with ``Box3D.from_rows``; ``Box3D.__new__``,
    which checks one box, is only the per-box view."""
    head = crowd_head(NUSCENES, 1000, 150)
    params = new_params(NUSCENES.arch(), mode="identity")
    built = []
    check_one = Box3D.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return check_one(cls, *args, **kwargs)

    monkeypatch.setattr(Box3D, "__new__", counting)
    dets = run_detect(PointCloud(np.zeros((0, 5))), params, NUSCENES, inject_head=head)
    assert dets and built == []
    Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)  # the counter sees a box checked one at a time
    assert len(built) == 1


def place_pillars(ix, iy, feats, grid):
    """The full-resolution float32 ``(D, ny, nx)`` canvas with each pillar's feature at its cell and zeros
    elsewhere: the oracle of ``pool_pillars``, which must give ``maxpool2`` of it."""
    canvas = np.zeros((feats.shape[1], grid.ny, grid.nx), dtype=np.float32)
    canvas[:, iy, ix] = feats.T
    return canvas


def front_end_scene(profile, seed, n_objects, points_per_object, n_background):
    """A seeded scene over the profile's range, with points outside it for the crop."""
    r = profile.grid.range
    spec = SceneSpec(range=r, n_objects=n_objects, points_per_object=points_per_object, n_background=n_background,
                     length_range=(0.6, 2.4), width_range=(0.4, 1.4), height_range=(0.4, 1.2),
                     n_classes=profile.n_classes)
    cloud, _ = generate_scene(spec, seed)
    outside = np.array([[r.x_max + 1.0, 0.0, 0.0, 0.5, 0.0], [0.0, r.y_min - 0.5, 0.0, 0.5, 0.0]])
    return PointCloud(np.concatenate([cloud.data, outside]))


FRONT_END_SCENES = {
    "desk": lambda: (DESK, front_end_scene(DESK, 3, 3, 50, 200)),
    "desk-crowded": lambda: (DESK, front_end_scene(DESK, 4, 6, 400, 2000)),
    "desk-objects-only": lambda: (DESK, front_end_scene(DESK, 5, 4, 120, 0)),
    "desk-empty": lambda: (DESK, PointCloud(np.zeros((0, 5)))),
    "nuscenes": lambda: (NUSCENES, front_end_scene(NUSCENES, 6, 20, 200, 3000)),
    "waymo": lambda: (WAYMO, front_end_scene(WAYMO, 7, 20, 200, 3000)),
}


class TestGroupedFrontEnd:
    """``encode_pillars`` runs crop -> group -> augment -> encode as one grouped array pass and
    ``pool_pillars`` builds the stage-1 grid from its arrays; the per-pillar API (``assign_pillars``,
    ``augment_points``, ``encode_pillar`` on one pillar, ``scatter``) is a view of the same steps
    and must give the same bytes, and so must ``maxpool2`` of the full canvas (``place_pillars``)."""

    @pytest.mark.parametrize("mode", ["random", "identity"])
    @pytest.mark.parametrize("scene", sorted(FRONT_END_SCENES))
    def test_grouped_pass_equals_the_per_pillar_api(self, scene, mode):
        profile, cloud = FRONT_END_SCENES[scene]()
        params = new_params(profile.arch(), mode=mode, seed=1)
        ix, iy, counts, feats = encode_pillars(cloud, params.encoder, profile.grid)
        cropped = crop_to_range(cloud, profile.grid.range)
        pillars = assign_pillars(cropped, profile.grid)
        want = [encode_pillar(augment_points(cropped, p, profile.grid), params.encoder, keep_intermediates=False).f
                for p in pillars]
        assert ix.tolist() == [p.ix for p in pillars] and iy.tolist() == [p.iy for p in pillars]
        assert counts.tolist() == [p.count for p in pillars]
        assert feats.dtype == np.float64 and feats.shape == (len(pillars), params.encoder.dim)
        assert feats.tobytes() == np.array(want).reshape(feats.shape).tobytes()
        canvas = place_pillars(ix, iy, feats, profile.grid)
        ref = scatter(zip(pillars, want), profile.grid, dim=profile.encoder_dim).data
        assert canvas.dtype == ref.dtype == np.float32 and canvas.shape == ref.shape
        assert canvas.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("mode", ["random", "identity"])
    @pytest.mark.parametrize("scene", sorted(FRONT_END_SCENES))
    def test_pooled_pillars_are_the_pooled_canvas_byte_for_byte(self, scene, mode):
        profile, cloud = FRONT_END_SCENES[scene]()
        ix, iy, _, feats = encode_pillars(cloud, new_params(profile.arch(), mode=mode, seed=1).encoder, profile.grid)
        got = pool_pillars(ix, iy, feats, profile.grid)
        want = maxpool2(place_pillars(ix, iy, feats, profile.grid))
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_pooling_every_parity_with_zero_and_tied_features_is_the_pooled_canvas(self):
        rng = np.random.default_rng(8)
        grid = DESK.grid
        iy, ix = (a.ravel() for a in np.indices((grid.ny, grid.nx)))
        keep = rng.random(ix.size) < 0.7  # pooled cells holding one to four pillars of any parities
        ix, iy = ix[keep], iy[keep]
        feats = rng.choice([0.0, 0.5, 1.0, 2.0], size=(ix.size, 8)) * rng.integers(0, 2, (ix.size, 8))
        got = pool_pillars(ix, iy, feats, grid)
        assert got.tobytes() == maxpool2(place_pillars(ix, iy, feats, grid)).tobytes()

    def test_encode_pillar_never_emits_negative_zero(self):
        """``pool_pillars`` equals the pooled canvas because no feature is -0.0: a -0.0 pillar beside an empty
        cell pools to -0.0 there and to +0.0 in ``maxpool2``. The rectifier ``np.maximum(y, 0.0)`` takes its
        second operand on a +-0 tie, so a -0.0 pre-activation comes out +0.0."""
        assert np.signbit(np.maximum(np.float64(+0.0), -0.0)) and not np.signbit(np.maximum(np.float64(-0.0), 0.0))
        d = 4  # gamma -1 and beta -0.0: every pre-activation (0 - 0) * -1 + -0.0 is -0.0
        norm = BNParams(gamma=-np.ones(d), beta=np.full(d, -0.0), mean=np.zeros(d), var=np.ones(d))
        params = EncoderParams(weight=np.zeros((d, AUGMENTED_DIM)), bias=np.zeros(d), norm=norm,
                               score_weight=np.zeros((d, d)), score_bias=np.zeros(d))
        out = encode_pillar(np.random.default_rng(9).normal(size=(5, 3, AUGMENTED_DIM)), params)
        assert np.signbit((out.z - norm.mean) * norm.scale + norm.beta).all()
        for name in ("encoded", "f_max", "f_att", "f"):
            assert not np.signbit(getattr(out, name)).any(), name
        for profile, cloud in (FRONT_END_SCENES[scene]() for scene in ("desk", "nuscenes", "waymo")):
            for mode in ("random", "identity"):
                feats = encode_pillars(cloud, new_params(profile.arch(), mode=mode, seed=1).encoder, profile.grid)[3]
                assert not np.signbit(feats).any(), (profile.name, mode)

    @pytest.mark.parametrize("scene", ["desk-crowded", "nuscenes", "waymo"])
    def test_scenes_hold_one_point_and_many_point_pillars(self, scene):
        profile, cloud = FRONT_END_SCENES[scene]()
        counts = np.diff(pillar_segments(crop_to_range(cloud, profile.grid.range), profile.grid)[1])
        assert counts.min() == 1 and counts.max() >= 8 and np.unique(counts).size >= 6

    @pytest.mark.parametrize("dim", [8, 64])
    def test_a_stack_of_equal_count_pillars_gives_each_pillar_its_own_bits(self, dim):
        rng = np.random.default_rng(dim)
        params = EncoderParams.random(rng, dim)
        for k in (1, 2, 3, 4, 7, 19, 40):
            stack = rng.normal(0.0, 2.0, (6, k, AUGMENTED_DIM))
            got = encode_pillar(stack, params)
            for i, aug in enumerate(stack):
                one = encode_pillar(aug, params)
                for name in ("f", "f_max", "f_att", "scores", "encoded", "z"):
                    assert getattr(got, name)[i].tobytes() == getattr(one, name).tobytes(), (k, i, name)

    @pytest.mark.parametrize("shape,message", [
        ((3, 0, AUGMENTED_DIM), "cannot encode an empty pillar"),
        ((0, AUGMENTED_DIM), "cannot encode an empty pillar"),
        ((2, 3, 4, AUGMENTED_DIM), f"augmented points must be ([P,] N, {AUGMENTED_DIM}), got (2, 3, 4, 11)"),
        ((3, 4, 10), f"augmented points must be ([P,] N, {AUGMENTED_DIM}), got (3, 4, 10)"),
    ], ids=["empty-stack", "empty-pillar", "4-d", "wrong-width"])
    def test_empty_and_wrongly_shaped_inputs_rejected_by_name(self, shape, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            encode_pillar(np.zeros(shape), EncoderParams.identity(8))

    def test_gradients_take_one_pillar(self):
        params = EncoderParams.identity(8)
        with pytest.raises(ValidationError, match=re.escape("one pillar's (N, 11) points, got (2, 3, 11)")):
            encoder_backward(np.ones((2, 3, AUGMENTED_DIM)), params, np.ones(8))


class TestFusionProbe:
    def test_train_fused_agreement(self):
        arch = DESK.arch()
        params = new_params(arch, mode="random", seed=3)
        assert fusion_discrepancy(params, fuse_params(params), 4, 0) < 1e-4

    def test_fused_params_rejected(self):
        arch = DESK.arch()
        fused = fuse_params(new_params(arch, mode="random", seed=4))
        from pillardet.errors import ValidationError

        with pytest.raises(ValidationError):
            fusion_discrepancy(fused, fused, 1, 0)


class TestDenseLayout:
    """Every feature map of the dense path is (C, H, W): a caller that still passes a
    batch axis is rejected by name, so it can never broadcast into a wrong result."""

    @pytest.mark.parametrize("name", [
        "conv2d", "batchnorm", "maxpool2", "upsample_nearest2", "unit_forward", "backbone_forward", "neck_fuse",
        "head_forward", "network_forward",
    ])
    def test_a_batch_axis_is_rejected_naming_the_shape(self, name):
        train = new_params(DESK.arch(), mode="random", seed=0)
        fused = fuse_params(train)
        ch, d = DESK.stage_channels, DESK.encoder_dim
        x = np.zeros((1, d, 8, 8), dtype=np.float32)
        f8, f16 = np.zeros((1, ch[2], 4, 4), dtype=np.float32), np.zeros((1, ch[3], 2, 2), dtype=np.float32)
        canvas = np.zeros((1, d, DESK.grid.ny, DESK.grid.nx), dtype=np.float32)
        call = {
            "conv2d": lambda: conv2d(x, fused.backbone.stem),
            "batchnorm": lambda: batchnorm(x, BNParams.neutral(d)),
            "maxpool2": lambda: maxpool2(x),
            "upsample_nearest2": lambda: upsample_nearest2(x),
            "unit_forward": lambda: unit_forward(x, train.backbone.stem),
            "backbone_forward": lambda: list(backbone_forward(x, fused.backbone)),
            "neck_fuse": lambda: neck_fuse(f8, f16, fused.neck),
            "head_forward": lambda: head_forward(np.zeros((1, DESK.neck_channels, 4, 4), dtype=np.float32), fused.head),
            "network_forward": lambda: network_forward(canvas, fused, DESK),
        }[name]
        with pytest.raises(ValidationError, match=r"\(c, h, w\) feature map, got shape \(1, \d+, \d+, \d+\)"):
            call()


@pytest.mark.parametrize("name", ["desk", "perfbench/wide_dense_profile.json"])
def test_analytic_macs_are_the_macs_that_run(monkeypatch, name):
    """Every conv a fused network_forward runs, tallied as c_out * c_in * k^2 * h_out * w_out, against count_macs
    at the stage-1 resolution the canvas pool leaves: the compute table is what executes."""
    profile = load_profile(name if name == "desk" else str(Path(__file__).resolve().parents[1] / name))
    params = fuse_params(new_params(profile.arch(), mode="random", seed=0))
    unit_names = {id(unit): name for name, unit in params.backbone.named_units()}
    macs = {}

    def tally(module):
        run = module.conv2d

        def counted(x, p):
            out = run(x, p)
            name = unit_names.get(id(p), module.__name__)
            macs[name] = macs.get(name, 0) + out.size * p.in_channels * p.ksize**2
            return out

        monkeypatch.setattr(module, "conv2d", counted)

    for module in (nn, backbone, head_module):  # the backbone units, the neck convs, the head conv
        tally(module)
    canvas = np.zeros((profile.encoder_dim, profile.grid.ny, profile.grid.nx), dtype=np.float32)
    network_forward(canvas, params, profile)
    assert set(macs) == set(unit_names.values()) | {"pillardet.backbone", "pillardet.head"}

    r = profile.canvas_reduction
    report = count_macs(BackboneConfig(profile.stage_blocks, profile.stage_channels, profile.encoder_dim,
                                       input_hw=(profile.grid.ny // r, profile.grid.nx // r)))
    assert sum(macs[name] for name in unit_names.values()) == report.total
    assert [macs[name] for name in ("stem", "t2", "t3", "t4")] == list(report.transition_macs)
    for i, total in enumerate(report.stage_totals):
        assert sum(m for name, m in macs.items() if name.startswith(f"s{i + 1}.")) == total


def test_fused_forward_holds_only_live_maps():
    """One fused network_forward on the wide-dense profile allocates little more than its largest conv needs:
    a stage-1 unit's input and output, one column band and the padded input rows that band reads. A padded
    copy of a whole input, a unit pair's input or an early stage output held past its last reader breaks it."""
    profile = load_profile(str(Path(__file__).resolve().parents[1] / "perfbench/wide_dense_profile.json"))
    params = fuse_params(new_params(profile.arch(), mode="random", seed=0))
    canvas = np.maximum(np.random.default_rng(0).normal(size=(profile.encoder_dim, profile.grid.ny, profile.grid.nx)),
                        0.0).astype(np.float32)
    d, c = profile.encoder_dim, profile.stage_channels[0]
    h, w = profile.grid.ny // profile.canvas_reduction, profile.grid.nx // profile.canvas_reduction
    row_bytes = c * 9 * w * 4  # one output row's columns of a stage-1 3x3 conv
    rows = min(h, max(nn.COLUMN_BLOCK_BYTES, c * c * 9 * 4) // row_bytes)
    bound = (max(d, c) + c) * h * w * 4 + rows * row_bytes + c * (rows + 2) * (w + 2) * 4
    network_forward(canvas, params, profile)  # warm-up: one-time allocations are not the forward's
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        network_forward(canvas, params, profile)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 1.25 * bound, (peak / 2**20, bound / 2**20)
